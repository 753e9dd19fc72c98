"""Golden CLI: the reports of the four scenario commands, byte for byte.

``repro lot``, ``compare``, ``partial`` and ``campaign`` each turn their
flags into Scenarios.  This test pins what they print, as recorded in
``tests/data/golden_cli.txt``, so a change to how the flags become
Scenarios cannot move a report unnoticed.  Two flags are easy to put on
the wrong Scenario and are covered here:

* compare's ``--samples-per-code`` sets only the histogram scenario's
  ramp density (on the partial-BIST row it would quadruple the samples
  per device);
* campaign's ``--seed`` is the campaign root seed, from which each
  scenario takes its own child seed (the ``--json`` run prints them).

Wall-clock output is left out: lot's ``devices/s (batched engine)``
line, and the ``timing`` block and ``wrote metrics to`` line of the
``--metrics`` runs.  partial's ``simulation devices/s`` row is kept with
a fixed elapsed time, because its width sets the width of the table.

To rewrite the data file after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import repro.cli
from repro.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_cli.txt"

#: Elapsed seconds the stubbed partial-run timer reports.
FIXED_ELAPSED_S = 0.25

#: The pinned runs, in file order; ``True`` adds a ``--metrics`` document.
RUNS = [
    (["lot", "--wafers", "1", "--devices", "200"], True),
    (["lot", "--wafers", "1", "--devices", "200",
      "--arch", "sar", "--q", "2", "--per-ic", "4"], False),
    (["lot", "--wafers", "1", "--devices", "200",
      "--method", "histogram", "--dnl-spec", "0.5"], False),
    (["lot", "--wafers", "1", "--devices", "200",
      "--noise", "0.05", "--deglitch", "3", "--retest", "1",
      "--tester", "mixed"], False),
    (["compare", "--devices", "200", "--q", "2", "--dynamic"], True),
    (["partial", "--devices", "200", "--q", "2"], True),
    (["partial", "--devices", "200"], False),
    (["campaign", "--devices", "200", "--flow", "fixed,sprt",
      "--excursion", "none,burst"], True),
    (["campaign", "--arch", "flash,sar", "--method", "bist,histogram",
      "--q", "full,4", "--devices", "200", "--json"], False),
]


class _FixedTimer:
    """Stand-in for ``TimerHandle`` that reports a fixed elapsed time."""

    def __init__(self, telemetry, name):
        self.elapsed_s = FIXED_ELAPSED_S

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


@contextlib.contextmanager
def _fixed_cli_timer():
    original = repro.cli.TimerHandle
    repro.cli.TimerHandle = _FixedTimer
    try:
        yield
    finally:
        repro.cli.TimerHandle = original


def _run(argv, metrics_path=None):
    """The command's stdout (wall-clock lines dropped) and its metrics
    document without the ``timing`` block."""
    if metrics_path is not None:
        argv = argv + ["--metrics", str(metrics_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), _fixed_cli_timer():
        assert main(argv) == 0
    lines = [line for line in out.getvalue().splitlines()
             if "devices/s (batched engine)" not in line
             and not line.startswith("wrote metrics to ")]
    document = None
    if metrics_path is not None:
        document = json.loads(metrics_path.read_text(encoding="utf-8"))
        del document["timing"]
    return "\n".join(lines), document


def golden_dump() -> str:
    """Every pinned run, as one text document."""
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (argv, with_metrics) in enumerate(RUNS):
            path = (pathlib.Path(tmp) / f"metrics-{i}.json"
                    if with_metrics else None)
            text, document = _run(argv, path)
            name = " ".join(argv)
            parts.append(f"== {name} ==\n{text}\n")
            if document is not None:
                parts.append(f"== metrics: {name} ==\n"
                             f"{json.dumps(document, indent=2, sort_keys=True)}"
                             f"\n")
    return "".join(parts)


def test_cli_reports_match_the_golden_file():
    assert golden_dump() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_dump(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
