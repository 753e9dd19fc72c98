"""Self-test of the benchmark: tiny runs of every workload.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it checks that a ``--tiny`` run emits exactly the
metrics BENCHMARK.json names, each with its unit (``--trace 0``: the
end-to-end metrics; ``--trace 1``: the per-layer ones), with every output
check holding; that a ``--corrupt`` run is reported incorrect with a
failed operation; and that the benchmark refuses to run, without a
result, in a directory holding only BENCHMARK.json and the benchmark.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args, cwd=".") -> subprocess.CompletedProcess:
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600, check=False)


def _result(workload: str, trace: int, *extra: str) -> dict:
    proc = _run(["--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra])
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} {extra} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def _expect_metrics(result: dict, declared: list, what: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise AssertionError(f"{what}: metrics/units differ from "
                             f"BENCHMARK.json: {sorted(set(got) ^ set(units))}"
                             f" or units {got} vs {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != \
                m["value"]:
            raise AssertionError(f"{what}: {name} is not a number")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = _result(workload, trace)
            what = f"{workload} --trace {trace}"
            _expect_metrics(result, declared, what)
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{what}: outputs not correct")
            print(f"ok   {what}: {len(result['metrics'])} metrics")
        corrupted = _result(workload, 0, "--corrupt")
        if corrupted["correct"] or corrupted["failed"] < 1:
            raise AssertionError(f"{workload}: the output checks did not "
                                 f"fire on a corrupted result")
        print(f"ok   {workload} --corrupt: checks fired "
              f"({corrupted['failed']} failed)")

    bare = Path(".perfbench") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("the benchmark ran without the program")
    print(f"ok   bare directory: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
