"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


#: The CLI smoke runs whose reports must not depend on the execution
#: flags: a noisy retested lot, an adaptive campaign grid, and a noisy
#: retested grid of every architecture under two screening methods.
EXECUTION_SMOKES = {
    "lot": ["lot", "--wafers", "1", "--devices", "800", "--noise", "0.05",
            "--deglitch", "3", "--retest", "1"],
    "campaign": ["campaign", "--flow", "fixed,sprt",
                 "--excursion", "none,drift", "--devices", "400",
                 "--wafers", "3"],
    "campaign-grid": ["campaign", "--arch", "flash,sar,pipeline",
                      "--method", "bist,histogram", "--q", "4",
                      "--devices", "600", "--noise", "0.05",
                      "--retest", "1"],
}


@pytest.mark.parametrize("command", sorted(EXECUTION_SMOKES))
def test_report_is_independent_of_execution_flags(command, capsys):
    """No flags, ``--workers 1 --chunk-size 100`` and ``--workers 2
    --chunk-size 37`` print the same report, apart from the wall-clock
    simulation line."""

    def run(extra):
        assert main(EXECUTION_SMOKES[command] + extra) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if "devices/s (batched engine)" not in line]

    reference = run([])
    assert run(["--workers", "1", "--chunk-size", "100"]) == reference
    assert run(["--workers", "2", "--chunk-size", "37"]) == reference


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bist_defaults(self):
        args = build_parser().parse_args(["bist"])
        assert args.bits == 6
        assert args.counter_bits == 7

    def test_qmin_requires_frequencies(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["qmin"])

    @pytest.mark.parametrize("flag", ["--pool-reuse", "--no-pool-reuse"])
    def test_no_pool_reuse_switch(self, flag):
        # A multi-worker run always dispatches on a persistent pool.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", flag])
        assert excinfo.value.code == 2


class TestCommands:
    def test_bist_pass(self, capsys):
        exit_code = main(["bist", "--sigma", "0.1", "--seed", "3",
                          "--dnl-spec", "1.0"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "PASS" in out

    def test_bist_fail_returns_nonzero(self, capsys):
        exit_code = main(["bist", "--sigma", "0.5", "--seed", "1",
                          "--dnl-spec", "0.25", "--counter-bits", "6"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "FAIL" in out

    def test_bist_with_histogram_comparison(self, capsys):
        main(["bist", "--sigma", "0.1", "--seed", "3",
              "--compare-histogram"])
        out = capsys.readouterr().out
        assert "histogram" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "counter bits" in out
        assert "±0.5" in out
        assert "meas" not in out  # Monte-Carlo columns are opt-in

    def test_table1_monte_carlo_columns(self, capsys):
        assert main(["table1", "--devices", "300", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "meas type I" in out
        assert "meas type II" in out
        assert "300 devices, seed 7" in out

    def test_table1_monte_carlo_follows_codes(self, capsys):
        # 30 codes = a 5-bit converter; the MEAS. wafer must match it.
        assert main(["table1", "--devices", "200", "--codes", "30"]) == 0
        out = capsys.readouterr().out
        assert "meas type I" in out
        with pytest.raises(ValueError):
            main(["table1", "--devices", "200", "--codes", "50"])

    def test_lot(self, capsys):
        assert main(["lot", "--wafers", "1", "--devices", "200",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Screening results per lot" in out
        assert "Station totals" in out
        assert "Quality bins" in out
        assert "devices screened: 200" in out

    def test_lot_with_retest_and_noise(self, capsys):
        assert main(["lot", "--wafers", "1", "--devices", "150",
                     "--noise", "0.02", "--deglitch", "2",
                     "--retest", "1", "--tester", "mixed"]) == 0
        out = capsys.readouterr().out
        assert "retest" in out

    def test_lot_partial_arch_and_chips(self, capsys):
        assert main(["lot", "--wafers", "1", "--devices", "200",
                     "--arch", "sar", "--q", "2", "--per-ic", "4"]) == 0
        out = capsys.readouterr().out
        assert "partial BIST, q=2" in out
        assert "sar/partial q=2" in out
        assert "chips screened" in out

    def test_lot_pipeline_architecture(self, capsys):
        assert main(["lot", "--wafers", "1", "--devices", "150",
                     "--arch", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "pipeline/full" in out

    def test_lot_histogram_method(self, capsys):
        assert main(["lot", "--wafers", "1", "--devices", "200",
                     "--method", "histogram", "--dnl-spec", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "conventional histogram test" in out
        assert "flash/histogram" in out

    def test_lot_dynamic_method(self, capsys):
        assert main(["lot", "--wafers", "1", "--devices", "60",
                     "--method", "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "dynamic FFT suite" in out
        assert "flash/dynamic" in out

    def test_lot_method_rejects_partial_q(self):
        with pytest.raises(ValueError):
            main(["lot", "--wafers", "1", "--devices", "100",
                  "--method", "histogram", "--q", "2"])

    def test_lot_workers_defaults(self):
        args = build_parser().parse_args(["lot"])
        assert args.workers is None
        assert args.chunk_size is None

    def test_observability_defaults(self):
        # Every batch command carries the telemetry surface, off by
        # default so reports stay byte-identical to the quiet CLI.
        for command in ("lot", "partial", "compare", "campaign"):
            args = build_parser().parse_args([command])
            assert args.verbose is False
            assert args.progress is False
            assert args.metrics is None

    def test_metrics_json_schema(self, tmp_path, capsys):
        import json

        path = tmp_path / "out.json"
        assert main(["lot", "--wafers", "1", "--devices", "200",
                     "--seed", "5", "--metrics", str(path)]) == 0
        assert f"wrote metrics to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.metrics/1"
        assert doc["context"]["command"] == "lot"
        assert doc["counters"]["line.devices"] == 200
        # Wall-clock data is isolated under the one non-deterministic key.
        assert set(doc) == {"schema", "context", "counters", "timing"}

    def test_verbose_epilogue(self, capsys):
        assert main(["partial", "--devices", "100", "--q", "2", "-v"]) == 0
        out = capsys.readouterr().out
        assert "elapsed:" in out
        assert "engine.partial.devices = 100" in out

    def test_progress_alone_raises_log_level(self):
        # --progress without -v must still lift the repro hierarchy to
        # INFO (the shard lines are emitted through it), and a quiet run
        # must drop it back.
        import logging

        assert main(["partial", "--devices", "50", "--q", "2",
                     "--progress"]) == 0
        assert logging.getLogger("repro").level == logging.INFO
        assert main(["partial", "--devices", "50", "--q", "2"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_progress_lines_reach_the_executor_logger(self):
        import logging

        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.executor")
        handler = Capture()
        logger.addHandler(handler)
        try:
            assert main(["lot", "--wafers", "1", "--devices", "300",
                         "--workers", "1", "--chunk-size", "50",
                         "--progress"]) == 0
        finally:
            logger.removeHandler(handler)
        assert any(message.startswith("shard") for message in records)

    def test_lot_report_byte_identical_across_workers(self, capsys):
        """The scale-out acceptance criterion at the CLI surface: the
        floor report of a noisy lot must be byte-identical for any
        (workers, chunk-size), with --workers 1 as the serial reference.
        Only the wall-clock simulation line may differ."""

        def run(extra):
            assert main(["lot", "--wafers", "1", "--devices", "300",
                         "--noise", "0.05", "--deglitch", "3",
                         "--retest", "1", "--seed", "11"] + extra) == 0
            out = capsys.readouterr().out
            return "\n".join(line for line in out.splitlines()
                             if "devices/s (batched engine)" not in line)

        reference = run(["--workers", "1", "--chunk-size", "64"])
        assert run(["--workers", "2", "--chunk-size", "64"]) == reference
        assert run(["--workers", "4", "--chunk-size", "29"]) == reference
        assert run(["--workers", "2", "--chunk-size", "128"]) == reference

    def test_partial_with_workers(self, capsys):
        assert main(["partial", "--devices", "200", "--q", "2",
                     "--workers", "2", "--chunk-size", "50"]) == 0
        out = capsys.readouterr().out
        assert "accept fraction" in out

    def test_compare_bist_vs_histogram(self, capsys):
        assert main(["compare", "--devices", "400", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "one shared wafer draw" in out
        assert "full BIST" in out
        assert "conventional histogram" in out
        assert "Screening methods compared" in out
        assert "type II (escapes)" in out

    def test_compare_with_partial_and_dynamic(self, capsys):
        assert main(["compare", "--devices", "200", "--seed", "3",
                     "--q", "2", "--dynamic"]) == 0
        out = capsys.readouterr().out
        assert "partial BIST q=2" in out
        assert "dynamic FFT" in out

    def test_partial_monte_carlo(self, capsys):
        assert main(["partial", "--devices", "300", "--q", "2",
                     "--arch", "sar"]) == 0
        out = capsys.readouterr().out
        assert "q = 2" in out
        assert "accept fraction" in out
        assert "reconstruction error rate" in out
        assert "tester data reduction" in out

    def test_partial_breakdown_reports_errors(self, capsys):
        """A too-fast ramp with q=1 must show reconstruction failures."""
        assert main(["partial", "--devices", "100", "--q", "1",
                     "--samples-per-code", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "devices with exact reconstruction" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "x1e-5" in out

    def test_figure7(self, capsys):
        assert main(["figure7", "--points", "12"]) == 0
        out = capsys.readouterr().out
        assert "P(type I)" in out
        assert "*" in out  # the ASCII plot

    def test_qmin_slow_and_fast(self, capsys):
        assert main(["qmin", "--f-stimulus", "1", "--f-sample", "1000000",
                     "--dnl-spec", "0.5", "--inl-spec", "0.5"]) == 0
        slow_out = capsys.readouterr().out
        assert "q_min = 1" in slow_out
        assert main(["qmin", "--f-stimulus", "500000",
                     "--f-sample", "1000000"]) == 0
        fast_out = capsys.readouterr().out
        assert "q_min = 6" in fast_out

    def test_yield(self, capsys):
        assert main(["yield"]) == 0
        out = capsys.readouterr().out
        assert "P(device good)" in out


class TestCampaignCommand:
    def test_grid_table(self, capsys):
        assert main(["campaign", "--arch", "flash,sar",
                     "--method", "bist,histogram", "--q", "4,8",
                     "--devices", "120"]) == 0
        out = capsys.readouterr().out
        # The q axis collapses for the histogram method: 2x2x2 -> 6.
        assert "6 scenarios" in out
        assert "Campaign results per scenario" in out
        assert "flash/partial q=4" in out
        assert "sar/histogram" in out
        assert "devices screened: 720" in out

    def test_q_full_keyword(self, capsys):
        assert main(["campaign", "--q", "full,2", "--devices", "80"]) == 0
        out = capsys.readouterr().out
        assert "flash/full" in out
        assert "flash/partial q=2" in out

    def test_report_byte_identical_across_workers(self, capsys):
        """The tentpole acceptance criterion at the CLI surface: a noisy
        campaign grid sharded over workers prints byte-for-byte the
        serial report (no filtering needed — the campaign output carries
        no wall-clock lines)."""

        def run(extra):
            assert main(["campaign", "--arch", "flash,sar",
                         "--method", "bist,histogram", "--q", "4,8",
                         "--devices", "90", "--noise", "0.05",
                         "--retest", "1", "--seed", "13"] + extra) == 0
            return capsys.readouterr().out

        reference = run(["--workers", "1", "--chunk-size", "32"])
        assert run(["--workers", "4", "--chunk-size", "32"]) == reference
        assert run(["--workers", "2", "--chunk-size", "17"]) == reference

    def test_metrics_deterministic_across_workers(self, tmp_path, capsys):
        """The same campaign at 1 and 2 workers writes metrics JSON whose
        blocks outside ``timing`` are equal, keeps its timers, and prints
        the same report apart from the "wrote metrics" line."""
        import json

        def run(workers):
            path = tmp_path / f"metrics-{workers}.json"
            assert main(["campaign", "--arch", "flash,sar",
                         "--method", "bist,histogram", "--devices", "300",
                         "--noise", "0.05", "--seed", "13",
                         "--workers", str(workers),
                         "--metrics", str(path)]) == 0
            out = [line for line in capsys.readouterr().out.splitlines()
                   if "wrote metrics to" not in line]
            return out, json.loads(path.read_text())

        serial_out, serial = run(1)
        sharded_out, sharded = run(2)
        assert sharded_out == serial_out
        assert serial["schema"] == sharded["schema"] == "repro.metrics/1"
        serial_timing = serial.pop("timing")
        sharded_timing = sharded.pop("timing")
        assert sharded == serial
        assert serial_timing["timers"] and sharded_timing["timers"]

    def test_json_export(self, capsys):
        import json

        assert main(["campaign", "--q", "2,4", "--devices", "60",
                     "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in records] == ["flash/partial q=2",
                                                 "flash/partial q=4"]
        assert all(r["devices"] == 60 for r in records)

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        assert main(["campaign", "--q", "2,4", "--devices", "60",
                     "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote 2 scenario records to {path}" in out
        lines = path.read_text().splitlines()
        assert lines[0].startswith("label,architecture,method")
        assert len(lines) == 3

    def test_campaign_workers_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.workers is None and args.chunk_size is None
        assert args.bits == 8
        assert args.arch == ["flash"] and args.q == [None]

    def test_axis_typos_are_clean_usage_errors(self, capsys):
        """Grid axes validate like the sibling commands' choices= args:
        a typo is an argparse usage error, not a raw traceback."""
        for argv in (["campaign", "--arch", "flahs"],
                     ["campaign", "--method", "histgram"],
                     ["campaign", "--q", "4.5"],
                     ["campaign", "--q", ","]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "usage:" in capsys.readouterr().err
