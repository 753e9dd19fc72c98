"""Command-line interface for the BIST reproduction.

The CLI exposes the most common flows as one-line commands so the library can
be exercised without writing Python:

``python -m repro.cli bist``
    Run the full BIST on a simulated flash converter and print the verdict.
``python -m repro.cli table1`` / ``table2``
    Regenerate the paper's Table 1 (SIM columns) and Table 2.
``python -m repro.cli figure7``
    Regenerate the Figure 7 series as a text listing and ASCII plot.
``python -m repro.cli qmin``
    Evaluate Equation (1) for a stimulus/sample frequency pair.
``python -m repro.cli yield``
    Print the section-4 yield figures for a given code-width sigma.
``python -m repro.cli lot``
    Screen a whole production lot with a batched screening method and
    print the floor report (yield, bins, throughput, cost).  ``--arch``
    selects the converter architecture (flash, SAR, pipeline), ``--q``
    switches the line to the batched partial BIST, ``--per-ic`` groups
    dies into multi-converter chips, and ``--method`` swaps the BIST
    station for the conventional histogram or dynamic FFT suite.
    ``--workers``/``--chunk-size`` shard the device axis over worker
    processes through the deterministic scale-out layer — the report is
    byte-identical for any worker count.
``python -m repro.cli partial``
    Monte-Carlo partial-BIST run over a whole population: accept rates,
    measured type I/II errors, reconstruction quality and tester data
    volume for a chosen (architecture, q) scenario.
``python -m repro.cli compare``
    The paper's BIST-vs-conventional trade-off at production scale: screen
    one shared wafer draw with the BIST line and the conventional
    histogram line (optionally the dynamic suite too) and print the
    yield/escape/tester-cost comparison.
``python -m repro.cli campaign``
    Run a whole *scenario grid* in one call: comma-separated axis values
    (``--arch flash,sar --method bist,histogram --q 4,8``) expand to the
    cartesian product of declarative Scenarios, every scenario screens
    under its own deterministic child seed, and the campaign ledger
    prints as one per-scenario table (``--json``/``--csv`` export the
    records).  The lot/partial/compare commands are thin wrappers over
    the same Scenario API.
``python -m repro.cli serve``
    The streaming "virtual fab": read a continuous JSONL stream of
    Scenario-tagged wafer requests (stdin, or many concurrent TCP
    clients with ``--socket``), screen every request on the shared
    persistent worker pool, and emit rolling JSONL result events plus a
    final ledger.  ``--checkpoint``/``--resume`` journal
    completed shards so a killed server reconverges byte-identically.

Every command accepts ``--help`` for its options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.adc import ARCHITECTURES, FlashADC
from repro.analysis import CodeWidthDistribution, ErrorModel, HistogramTest
from repro.campaign import AUTO_Q, FLOWS, Campaign, Scenario, make_engine
from repro.flows.excursions import EXCURSIONS
from repro.core import (
    BistConfig,
    BistEngine,
    PopulationBistResult,
    qmin,
)
from repro.production import (
    SCREENING_METHODS,
    BatchBistEngine,
    ExecutionPlan,
    ResultStore,
    ScreeningLine,
    Wafer,
    WaferSpec,
    close_default_pool,
)
from repro.reporting import ascii_plot, format_table
from repro.telemetry import (
    Telemetry,
    TimerHandle,
    configure_logging,
    current_telemetry,
    telemetry_session,
    write_metrics,
)

__all__ = ["main", "build_parser"]

#: Shard cadence of the `-v`/`--progress` rolling progress line.
DEFAULT_PROGRESS_EVERY = 10


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the scale-out options shared by the batch commands."""
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes the batched engines shard the device axis "
             "over (default 1: in-process serial execution; every worker "
             "count prints the same report)")
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="devices materialised per chunk inside each shard (memory "
             "knob; never changes results; default: each engine's "
             "working-set budget divided by its per-device row bytes)")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="INFO logging on the 'repro' logger hierarchy, shard "
             "progress lines and a telemetry epilogue (elapsed time, "
             "work counters)")
    parser.add_argument(
        "--progress", action="store_true",
        help="periodic shard-progress log lines (every "
             f"{DEFAULT_PROGRESS_EVERY} shards) without the rest of -v")
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write a schema-versioned metrics JSON (work counters, "
             "timers, trace spans) to PATH; counters are byte-identical "
             "for any --workers value, wall-clock data is isolated under "
             "the 'timing' block")


#: The scalar Scenario flags of the scenario commands: flag -> (the
#: Scenario field :func:`_base_scenario` reads it into, add_argument
#: keywords).  ``--seed`` and ``--samples-per-code`` name no field:
#: campaign's seed is the root of its scenarios' child seeds and compare's
#: ramp density is its histogram scenario's, so each command places them.
_SCENARIO_FLAGS = {
    "--bits": ("n_bits", dict(type=int, default=6,
                              help="converter resolution")),
    "--devices": ("n_devices", dict(type=int, default=2000,
                                    help="dies per wafer")),
    "--sigma": ("sigma_code_width_lsb", dict(
        type=float, default=0.21, help="code-width sigma in LSB")),
    "--seed": (None, dict(type=int, default=2026,
                          help="wafer-draw and acquisition-noise seed")),
    "--dnl-spec": ("dnl_spec_lsb", dict(
        type=float, default=1.0, help="DNL specification in LSB")),
    "--inl-spec": ("inl_spec_lsb", dict(
        type=float, default=None,
        help="INL specification in LSB (default: not checked)")),
    "--noise": ("transition_noise_lsb", dict(
        type=float, default=0.0, help="transition noise in LSB")),
    "--samples-per-code": (None, dict(
        type=float, default=16.0,
        help="ramp density of the partial-BIST and histogram stimuli")),
    "--counter-bits": ("counter_bits", dict(
        type=int, default=7, help="LSB-processing counter size")),
    "--wafers": ("n_wafers", dict(type=int, default=2,
                                  help="wafers per lot")),
    "--per-ic": ("devices_per_ic", dict(
        type=int, default=1,
        help="converters per IC; >1 adds chip-level yield")),
    "--retest": ("retest_attempts", dict(
        type=int, default=0, help="retest attempts for rejected dies")),
    "--deglitch": ("deglitch_depth", dict(
        type=int, default=0, help="LSB deglitch filter depth (0 = off)")),
    "--tester": ("tester", dict(
        choices=("digital", "mixed"), default=None,
        help="tester model pricing the insertions (default: digital for "
             "the full BIST, mixed-signal for every other method)")),
}

#: The flags every scenario command declares.
_SHARED_FLAGS = ("--bits", "--devices", "--sigma", "--seed", "--dnl-spec",
                 "--inl-spec", "--noise", "--samples-per-code")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_scenario_arguments(parser: argparse.ArgumentParser, *extra: str,
                            helps: Optional[dict] = None,
                            **defaults) -> None:
    """Declare the scalar Scenario flags of one scenario command.

    Every command gets :data:`_SHARED_FLAGS`; ``extra`` names further
    flags of :data:`_SCENARIO_FLAGS`.  ``defaults`` and ``helps``, keyed
    by dest, replace a flag's default and help text.
    """
    helps = helps or {}
    for flag in _SHARED_FLAGS + extra:
        options = dict(_SCENARIO_FLAGS[flag][1])
        dest = _dest(flag)
        options["default"] = defaults.get(dest, options["default"])
        options["help"] = helps.get(dest, options["help"])
        if options["default"] is not None:
            options["help"] += f" (default {options['default']:g})"
        parser.add_argument(flag, **options)


def _base_scenario(args: argparse.Namespace, **fields) -> Scenario:
    """The Scenario of a command's scalar flags, with ``fields`` on top.

    Reads every flag of :data:`_SCENARIO_FLAGS` that names a field and
    that the command declares; the caller adds the rest.
    """
    given = vars(args)
    base = {field: given[_dest(flag)]
            for flag, (field, _) in _SCENARIO_FLAGS.items()
            if field is not None and _dest(flag) in given}
    base.update(fields)
    return Scenario(**base)


def _axis(choices, label: str):
    """An argparse ``type=`` parser for a comma-separated choices axis.

    Validation errors surface as clean usage messages (like the
    ``choices=`` of the single-value commands), not tracebacks.
    """
    def parse(text: str) -> List[str]:
        values = [item.strip() for item in text.split(",") if item.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty {label} axis")
        bad = [value for value in values if value not in choices]
        if bad:
            raise argparse.ArgumentTypeError(
                f"invalid {label} value(s): {', '.join(map(repr, bad))} "
                f"(choose from {', '.join(choices)})")
        return values

    return parse


def _q_axis(text: str) -> List[Optional[int]]:
    """The q axis: 'full' (or 'none') is the full BIST, else an integer."""
    values: List[Optional[int]] = []
    for item in (piece.strip() for piece in text.split(",")):
        if not item:
            continue
        if item.lower() in ("full", "none"):
            values.append(None)
        else:
            try:
                values.append(int(item))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid q value {item!r} (expected 'full' or an "
                    f"integer)")
    if not values:
        raise argparse.ArgumentTypeError("empty q axis")
    return values


def _excursion_axis(text: str) -> List[Optional[str]]:
    """The excursion axis: 'none' is the clean population, else a name."""
    values: List[Optional[str]] = []
    for item in (piece.strip() for piece in text.split(",")):
        if not item:
            continue
        lowered = item.lower()
        if lowered == "none":
            values.append(None)
        elif lowered in EXCURSIONS:
            values.append(lowered)
        else:
            raise argparse.ArgumentTypeError(
                f"invalid excursion {item!r} (choose from none, "
                f"{', '.join(EXCURSIONS)})")
    if not values:
        raise argparse.ArgumentTypeError("empty excursion axis")
    return values


def _plan_from_args(args: argparse.Namespace) -> ExecutionPlan:
    """The execution plan of the command line's scale-out options.

    The flags only set how the run is executed: with none of them the
    plan is ``ExecutionPlan()`` (one in-process worker), and every
    ``--workers``/``--chunk-size`` prints the same report.
    """
    return ExecutionPlan(
        workers=args.workers if args.workers is not None else 1,
        chunk_size=args.chunk_size)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BIST methodology for A/D converters (DATE 1997) — "
                    "reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    bist = sub.add_parser("bist", help="run the full BIST on one simulated "
                                       "flash converter")
    bist.add_argument("--bits", type=int, default=6,
                      help="converter resolution (default 6)")
    bist.add_argument("--sigma", type=float, default=0.21,
                      help="code-width sigma in LSB (default 0.21)")
    bist.add_argument("--counter-bits", type=int, default=7,
                      help="LSB-processing counter size (default 7)")
    bist.add_argument("--dnl-spec", type=float, default=1.0,
                      help="DNL specification in LSB (default 1.0)")
    bist.add_argument("--inl-spec", type=float, default=None,
                      help="INL specification in LSB (default: not checked)")
    bist.add_argument("--seed", type=int, default=0,
                      help="device mismatch seed (default 0)")
    bist.add_argument("--compare-histogram", action="store_true",
                      help="also run the conventional histogram test")

    table1 = sub.add_parser("table1", help="regenerate Table 1 (SIM columns, "
                                           "optionally MEAS. via Monte-Carlo)")
    table1.add_argument("--sigma", type=float, default=0.21)
    table1.add_argument("--codes", type=int, default=62)
    table1.add_argument("--devices", type=int, default=0,
                        help="Monte-Carlo population size for the MEAS. "
                             "columns (0 disables them; requires "
                             "--codes = 2**n - 2)")
    table1.add_argument("--seed", type=int, default=1997,
                        help="population seed for the MEAS. columns "
                             "(default 1997)")

    table2 = sub.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--sigma", type=float, default=0.21)
    table2.add_argument("--codes", type=int, default=62)

    figure7 = sub.add_parser("figure7", help="regenerate the Figure 7 series")
    figure7.add_argument("--sigma", type=float, default=0.21)
    figure7.add_argument("--dnl-spec", type=float, default=0.5)
    figure7.add_argument("--ds-min", type=float, default=0.070)
    figure7.add_argument("--ds-max", type=float, default=0.115)
    figure7.add_argument("--points", type=int, default=46)

    qmin_cmd = sub.add_parser("qmin", help="evaluate Equation (1)")
    qmin_cmd.add_argument("--f-stimulus", type=float, required=True,
                          help="test-signal frequency in Hz")
    qmin_cmd.add_argument("--f-sample", type=float, required=True,
                          help="converter sample rate in Hz")
    qmin_cmd.add_argument("--bits", type=int, default=6)
    qmin_cmd.add_argument("--dnl-spec", type=float, default=1.0)
    qmin_cmd.add_argument("--inl-spec", type=float, default=1.0)

    yield_cmd = sub.add_parser("yield", help="section-4 yield figures")
    yield_cmd.add_argument("--sigma", type=float, default=0.21)
    yield_cmd.add_argument("--codes", type=int, default=62)

    lot = sub.add_parser("lot", help="screen a production lot with the "
                                     "batched BIST")
    _add_scenario_arguments(lot, "--counter-bits", "--wafers", "--per-ic",
                            "--retest", "--deglitch", "--tester")
    lot.add_argument("--arch", choices=ARCHITECTURES, default="flash",
                     help="converter architecture of the dies "
                          "(default flash)")
    lot.add_argument("--q", type=int, default=None,
                     help="screen with the partial BIST, capturing q LSBs "
                          "off-chip (default: full BIST)")
    lot.add_argument("--method", choices=SCREENING_METHODS, default="bist",
                     help="screening method of the first station: the "
                          "BIST, the conventional histogram test, or the "
                          "dynamic FFT suite (default bist)")
    _add_execution_arguments(lot)

    compare = sub.add_parser(
        "compare", help="screen one shared wafer draw with the BIST and "
                        "the conventional test and compare the outcomes")
    _add_scenario_arguments(
        compare, "--counter-bits", dnl_spec=0.5, samples_per_code=64.0,
        helps={"samples_per_code": "ramp density of the histogram "
                                   "scenario only; 64 is the paper's "
                                   "4096-sample production test"})
    compare.add_argument("--arch", choices=ARCHITECTURES, default="flash",
                         help="converter architecture (default flash)")
    compare.add_argument("--q", type=int, default=None,
                         help="also compare the partial BIST with q LSBs "
                              "off-chip (default: full BIST only)")
    compare.add_argument("--dynamic", action="store_true",
                         help="include the dynamic FFT suite in the "
                              "comparison")
    _add_execution_arguments(compare)

    campaign = sub.add_parser(
        "campaign", help="run a declarative scenario grid through the "
                         "screening line and print one per-scenario table")
    campaign.add_argument("--arch", default=["flash"],
                          type=_axis(ARCHITECTURES, "architecture"),
                          help="comma-separated architectures, e.g. "
                               "flash,sar,pipeline (default flash)")
    campaign.add_argument("--method", default=["bist"],
                          type=_axis(SCREENING_METHODS, "method"),
                          help="comma-separated screening methods, e.g. "
                               "bist,histogram,dynamic (default bist)")
    campaign.add_argument("--q", default=[None], type=_q_axis,
                          help="comma-separated BIST capture widths: "
                               "'full' (the full BIST) or integers "
                               "1..bits; non-BIST methods ignore the q "
                               "axis (default full)")
    campaign.add_argument("--flow", default=["fixed"],
                          type=_axis(FLOWS, "flow"),
                          help="comma-separated test flows: 'fixed' "
                               "(full-length test) and/or 'sprt' (the "
                               "same verdicts, each die stopped at its "
                               "first failing code, with wafer-level SPC "
                               "abort; full-BIST scenarios only, other "
                               "methods collapse to fixed) "
                               "(default fixed)")
    campaign.add_argument("--excursion", default=[None],
                          type=_excursion_axis,
                          help="comma-separated process excursions to "
                               "inject into the drawn wafers: none, "
                               "drift, spatial, burst (default none)")
    _add_scenario_arguments(
        campaign, "--counter-bits", "--wafers", "--per-ic", "--retest",
        "--tester", bits=8, devices=1000, wafers=1,
        helps={"seed": "campaign root seed; scenario i screens under "
                       "child seed i"})
    campaign.add_argument("--json", action="store_true",
                          help="print the per-scenario records as JSON "
                               "instead of tables")
    campaign.add_argument("--csv", metavar="PATH", default=None,
                          help="also write the per-scenario records to "
                               "PATH as CSV")
    _add_execution_arguments(campaign)

    serve = sub.add_parser(
        "serve", help="long-running streaming front door: screen a "
                      "continuous JSONL stream of Scenario-tagged wafer "
                      "requests (stdin or TCP) on the shared worker pool, "
                      "emitting rolling JSONL results with "
                      "checkpoint/resume")
    serve.add_argument("--socket", metavar="HOST:PORT", default=None,
                       help="listen for line-oriented TCP clients instead "
                            "of reading stdin (port 0 picks an ephemeral "
                            "port, announced by the 'listening' event)")
    serve.add_argument("--seed", type=int, default=2026,
                       help="root seed: request i without its own seed "
                            "screens under child seed i, exactly like a "
                            "batch campaign (default 2026)")
    serve.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="journal accepted requests and completed "
                            "shards to PATH (append-only JSONL, flushed "
                            "per line) so a killed server can resume")
    serve.add_argument("--resume", metavar="PATH", default=None,
                       help="restore from a checkpoint journal: finished "
                            "work replays from the journal, only "
                            "unfinished shards dispatch, and the final "
                            "ledger is byte-identical to an "
                            "uninterrupted run")
    serve.add_argument("--ledger", metavar="PATH", default=None,
                       help="write the final merged ledger text to PATH "
                            "on shutdown")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrent request screenings; further "
                            "requests queue (default 8)")
    serve.add_argument("--pool-retries", type=int, default=1,
                       help="per-request re-runs against a rebuilt pool "
                            "after a worker death (PoolBrokenError); "
                            "journaled shards replay on retry (default 1)")
    _add_execution_arguments(serve)

    partial = sub.add_parser(
        "partial", help="Monte-Carlo partial-BIST run over a population")
    _add_scenario_arguments(partial, devices=1000)
    partial.add_argument("--q", type=int, default=None,
                         help="observed LSBs (default: Equation (1) "
                              "minimum for the stimulus)")
    partial.add_argument("--arch", choices=ARCHITECTURES, default="flash",
                         help="converter architecture (default flash)")
    _add_execution_arguments(partial)

    return parser


def _cmd_bist(args: argparse.Namespace) -> int:
    adc = FlashADC.from_sigma(args.bits, args.sigma, seed=args.seed)
    config = BistConfig(n_bits=args.bits, counter_bits=args.counter_bits,
                        dnl_spec_lsb=args.dnl_spec,
                        inl_spec_lsb=args.inl_spec)
    engine = BistEngine(config)
    result = engine.run(adc)
    print(f"device: {args.bits}-bit flash, sigma {args.sigma} LSB, "
          f"seed {args.seed}")
    print(f"true max |DNL| = {adc.max_dnl():.3f} LSB, "
          f"max |INL| = {adc.max_inl():.3f} LSB")
    print(f"BIST: {engine.limits.describe()}")
    print(f"verdict: {'PASS' if result.passed else 'FAIL'} "
          f"({result.lsb.n_codes_measured} codes, "
          f"{result.samples_taken} samples)")
    if args.compare_histogram:
        histogram = HistogramTest.paper_production(
            n_bits=args.bits, dnl_spec_lsb=args.dnl_spec,
            inl_spec_lsb=args.inl_spec)
        reference = histogram.run(adc, rng=args.seed)
        print(f"conventional histogram test: "
              f"{'PASS' if reference.passed else 'FAIL'} "
              f"(max |DNL| {reference.max_dnl:.3f} LSB, "
              f"{reference.bits_transferred} bits captured)")
    return 0 if result.passed else 1


def _error_table(sigma: float, codes: int, dnl_spec: float,
                 scale: float, scale_label: str,
                 devices: int = 0, seed: int = 1997) -> str:
    measure = None
    if devices > 0:
        # The MEAS. columns: an actual Monte-Carlo batch put through the
        # (batched) BIST, as the paper did with its 364 measured devices.
        # The device resolution follows the requested code count so that
        # SIM and MEAS columns describe the same geometry.
        n_bits = (codes + 2).bit_length() - 1
        if (1 << n_bits) - 2 != codes:
            raise ValueError(
                f"the MEAS. columns need a full converter: --codes must be "
                f"2**n - 2 (e.g. 62 for 6 bits), got {codes}")
        wafer = Wafer.draw(WaferSpec(n_bits=n_bits,
                                     sigma_code_width_lsb=sigma,
                                     n_devices=devices), rng=seed)

        def measure(bits: int):
            engine = BatchBistEngine(BistConfig(
                n_bits=n_bits, counter_bits=bits, dnl_spec_lsb=dnl_spec))
            return engine.run_population(wafer, rng=seed)

    rows = []
    for bits in (4, 5, 6, 7):
        model = ErrorModel(distribution=CodeWidthDistribution(sigma),
                           dnl_spec_lsb=dnl_spec, counter_bits=bits)
        device = model.device(codes)
        row = [bits, device.type_i * scale, device.type_ii * scale,
               model.max_error_lsb()]
        if measure is not None:
            measured = measure(bits)
            row += [measured.type_i * scale, measured.type_ii * scale]
        rows.append(row)

    headers = ["counter bits", f"type I {scale_label}",
               f"type II {scale_label}", "max error [LSB]"]
    title = f"DNL spec ±{dnl_spec} LSB, sigma {sigma} LSB, {codes} codes"
    if measure is not None:
        headers += [f"meas type I {scale_label}",
                    f"meas type II {scale_label}"]
        title += f" (MEAS.: {devices} devices, seed {seed})"
    return format_table(headers, rows, title=title)


def _cmd_table1(args: argparse.Namespace) -> int:
    print(_error_table(args.sigma, args.codes, dnl_spec=0.5, scale=1.0,
                       scale_label="probability",
                       devices=args.devices, seed=args.seed))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    print(_error_table(args.sigma, args.codes, dnl_spec=1.0, scale=1e5,
                       scale_label="x1e-5"))
    return 0


def _cmd_figure7(args: argparse.Namespace) -> int:
    ds_values = np.linspace(args.ds_min, args.ds_max, args.points)
    sweep = ErrorModel.sweep_delta_s(
        ds_values, n_codes=62, dnl_spec_lsb=args.dnl_spec,
        distribution=CodeWidthDistribution(args.sigma))
    print(format_table(
        ["ds [LSB]", "P(type I)", "P(type II)"],
        zip(sweep["delta_s_lsb"], sweep["type_i"], sweep["type_ii"]),
        title="Figure 7 series"))
    print()
    print(ascii_plot(sweep["delta_s_lsb"], sweep["type_i"],
                     title="P(type I) vs ds"))
    return 0


def _cmd_qmin(args: argparse.Namespace) -> int:
    q = qmin(args.f_stimulus, args.f_sample, args.bits,
             dnl_spec_lsb=args.dnl_spec, inl_spec_lsb=args.inl_spec)
    print(f"q_min = {q} (of {args.bits} bits); "
          f"{'full BIST possible' if q == 1 else f'{q} LSBs must stay observable'}")
    return 0


def _cmd_yield(args: argparse.Namespace) -> int:
    dist = CodeWidthDistribution(args.sigma)
    rows = [
        ["P(device good) at ±0.5 LSB", dist.prob_device_good(0.5, args.codes)],
        ["P(device good) at ±1.0 LSB", dist.prob_device_good(1.0, args.codes)],
        ["P(device faulty) at ±1.0 LSB",
         dist.prob_device_faulty(1.0, args.codes)],
        ["ladder width correlation", dist.ladder_correlation(args.codes + 2)],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"sigma {args.sigma} LSB, {args.codes} codes"))
    return 0


def _cmd_lot(args: argparse.Namespace) -> int:
    # One Scenario drives the line, the lot draw and the seeding.
    scenario = _base_scenario(args, architecture=args.arch,
                              method=args.method, q=args.q,
                              samples_per_code=args.samples_per_code,
                              seed=args.seed, label=f"LOT-{args.seed}")
    line = ScreeningLine(scenario)
    lot = scenario.draw_lot()
    report = line.screen_lot(lot, rng=scenario.seed,
                             plan=_plan_from_args(args))
    store = ResultStore([report])

    print(f"lot {lot.lot_id}: {args.wafers} wafers x {args.devices} "
          f"{args.arch} dies")
    print(f"station: {line.describe()}")
    print(f"simulation: {report.simulated_devices_per_second:,.0f} "
          f"devices/s (batched engine)")
    print()
    print(store.lot_table())
    print()
    print(store.station_table())
    print()
    print(store.bin_table())
    print()
    print(store.summary())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # The method list is a scenario list derived from one base: every
    # comparison point differs from it in exactly the axis it names.  The
    # shared-wafer campaign screens the identical dies with every method,
    # so the yield/escape/cost differences are attributable to the test
    # method alone — the paper's comparison, at production scale.
    base = _base_scenario(args, architecture=args.arch, seed=args.seed)
    scenarios = [base.derive(label="full BIST")]
    if args.q is not None:
        scenarios.append(base.derive(q=args.q,
                                     label=f"partial BIST q={args.q}"))
    scenarios.append(base.derive(method="histogram",
                                 samples_per_code=args.samples_per_code,
                                 label="conventional histogram"))
    if args.dynamic:
        scenarios.append(base.derive(method="dynamic", label="dynamic FFT"))

    campaign = Campaign(scenarios, seed=args.seed, shared_wafer=True,
                        shared_wafer_id=f"CMP-{args.seed}")
    result = campaign.run(plan=_plan_from_args(args))

    sample_rate = base.wafer_spec().sample_rate
    rows = []
    for label, line, report in zip(result.labels, campaign.lines(),
                                   result.reports):
        plan = line.test_plan(args.bits, report.samples_per_device,
                              sample_rate)
        rows.append([label, report.accept_fraction, report.p_good,
                     report.type_i, report.type_ii,
                     plan.data_volume_bits,
                     report.tester_seconds, report.cost_per_device])

    print(f"shared wafer: {args.devices} {args.arch} dies, "
          f"{args.bits} bits, seed {args.seed} "
          f"(true yield {rows[0][2]:.1%} at ±{args.dnl_spec} LSB)")
    print()
    print(format_table(
        ["method", "accept frac", "true yield", "type I (yield loss)",
         "type II (escapes)", "bits/device", "tester [s]", "cost/device"],
        rows, title="BIST vs conventional test on one shared wafer draw"))
    print()
    print(result.store.method_table())
    return 0


def _cmd_partial(args: argparse.Namespace) -> int:
    # Engine-level, like `lot` without the line: the Monte-Carlo run
    # needs no screening line, so q may stay "auto" (the Equation (1)
    # minimum, resolved from the stimulus at run time).
    scenario = _base_scenario(
        args, architecture=args.arch,
        q=args.q if args.q is not None else AUTO_Q,
        samples_per_code=args.samples_per_code, seed=args.seed)
    wafer = scenario.draw_wafer(wafer_id=f"MC-{args.seed}")
    engine = make_engine(scenario)

    # The timer measures wall time even under the null telemetry, so the
    # devices/s row below works with or without an enabled session.
    with TimerHandle(current_telemetry(), "cli.partial.run_wafer") as tm:
        result = engine.run_wafer(wafer, rng=args.seed,
                                  plan=_plan_from_args(args))
    elapsed = tm.elapsed_s

    # Score against the truth with the shared Monte-Carlo result type, so
    # the command reports the same joint (Table 1) error-rate convention
    # as every other population run.
    outcome = PopulationBistResult(
        n_devices=result.n_devices,
        accepted=result.passed,
        truly_good=wafer.good_mask(args.dnl_spec, args.inl_spec))
    partition = result.partition
    conventional_bits = result.samples_taken * args.bits

    print(f"partial BIST Monte-Carlo: {args.devices} {args.arch} devices, "
          f"{args.bits} bits, q = {partition.q} "
          f"({partition.on_chip_bits} bits verified on-chip)")
    rows = [
        ["accept fraction", result.accept_fraction],
        ["true yield", outcome.p_good],
        ["type I (good rejected)", outcome.type_i],
        ["type II (faulty accepted)", outcome.type_ii],
        ["mean reconstruction error rate",
         float(result.reconstruction_error_rate.mean())],
        ["devices with exact reconstruction",
         float(np.mean(result.reconstruction_error_rate == 0.0))],
        ["bits captured per device", result.bits_captured_per_device],
        ["conventional-test bits per device", conventional_bits],
        ["tester data reduction",
         conventional_bits / max(result.bits_captured_per_device, 1)],
        ["simulation devices/s", args.devices / max(elapsed, 1e-12)],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"DNL spec ±{args.dnl_spec} LSB, "
                             f"{result.samples_taken} samples/device"))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json as _json

    # --seed is the campaign's root seed, not the base scenario's: every
    # scenario screens under its own child seed of it.
    base = _base_scenario(args, samples_per_code=args.samples_per_code)
    scenarios = base.grid(architecture=args.arch, method=args.method,
                          q=args.q, flow=args.flow,
                          excursion=args.excursion)
    campaign = Campaign(scenarios, seed=args.seed)
    result = campaign.run(plan=_plan_from_args(args))

    if args.csv is not None:
        rows = result.write_csv(args.csv)
        print(f"wrote {rows} scenario records to {args.csv}")
    if args.json:
        print(_json.dumps(result.records(), indent=2))
        return 0
    # Everything printed below is deterministic (no wall-clock lines), so
    # the campaign report of `--workers N` diffs byte-for-byte against
    # the serial `--workers 1` reference.
    print(f"campaign: {len(scenarios)} scenarios x {args.wafers} wafers "
          f"x {args.devices} {args.bits}-bit dies, root seed {args.seed}")
    print()
    print(result.table())
    if args.verbose:
        # The operational pivot next to the campaign table — built from
        # the screening reports alone, so it is just as deterministic.
        print()
        print(result.metrics_table())
    print()
    print(result.store.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeServer

    socket_addr = None
    if args.socket is not None:
        host, _, port_text = args.socket.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise SystemExit(f"invalid --socket {args.socket!r} "
                             f"(expected HOST:PORT)")
        socket_addr = (host or "127.0.0.1", port)
    server = ServeServer(plan=_plan_from_args(args), seed=args.seed,
                         socket=socket_addr,
                         checkpoint=args.checkpoint, resume=args.resume,
                         ledger_path=args.ledger,
                         max_inflight=args.max_inflight,
                         pool_retries=args.pool_retries)
    return asyncio.run(server.run())


_HANDLERS = {
    "bist": _cmd_bist,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figure7": _cmd_figure7,
    "qmin": _cmd_qmin,
    "yield": _cmd_yield,
    "lot": _cmd_lot,
    "partial": _cmd_partial,
    "compare": _cmd_compare,
}


def _metrics_context(args: argparse.Namespace) -> dict:
    """The deterministic context block of a CLI metrics document.

    Deliberately excludes the execution geometry (workers, chunk size):
    two runs of the same command must emit byte-identical documents
    outside the ``timing`` block no matter how they were scheduled.
    """
    context = {"command": args.command}
    for key in ("seed", "devices", "wafers", "bits"):
        value = getattr(args, key, None)
        if value is not None:
            context[key] = value
    return context


def _run_with_telemetry(handler, args: argparse.Namespace) -> int:
    """Run a batch command inside an enabled telemetry session.

    The session is always on for the batch commands (its no-op cost is
    pinned by the benchmark suite); what varies is the surface: ``-v``
    turns on INFO logging, progress lines and the epilogue, ``--progress``
    just the shard progress lines, ``--metrics`` the JSON document.
    Default output is byte-identical to the uninstrumented CLI.
    """
    progress = args.verbose or args.progress
    # --progress alone must still raise the logger to INFO: the shard
    # progress lines are emitted through the `repro` hierarchy.
    configure_logging(verbose=progress, stream=sys.stderr)
    telemetry = Telemetry(
        progress_every=DEFAULT_PROGRESS_EVERY if progress else 0)
    try:
        with telemetry_session(telemetry):
            with telemetry.timer(f"cli.{args.command}") as timer:
                code = handler(args)
    finally:
        # One command = one process: release the persistent pool (and any
        # shared-memory segments it kept warm) before printing epilogues.
        close_default_pool()
    if args.verbose:
        print()
        print(f"elapsed: {timer.elapsed_s:.3f} s ({args.command})")
        for name in sorted(telemetry.counters):
            print(f"  {name} = {telemetry.counters[name]}")
    if args.metrics is not None:
        write_metrics(args.metrics, telemetry,
                      context=_metrics_context(args))
        print(f"wrote metrics to {args.metrics}")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    if hasattr(args, "metrics"):
        return _run_with_telemetry(handler, args)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
