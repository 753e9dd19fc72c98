"""Shared plumbing of the benchmark: run ledger, statistics, environment.

Nothing here measures a layer; it keeps the books every workload needs:
how many operations were attempted and failed, which output checks ran
and whether they held, medians and percentiles of timings, peak memory,
and the environment block printed beside every result.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Scratch directory (journals, trace files) inside the checkout; ignored
#: by git.
OUT_DIR = Path(".perfbench")


class RunLedger:
    """Operations attempted and failed, plus the named output checks.

    Every repetition, served request and output check counts as one
    attempted operation.  A repetition that raises, a serve ``error``
    event, a ``PoolBrokenError`` and a check that does not hold each count
    as one failed operation; failures are reported, never dropped.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(reason)

    @contextmanager
    def operation(self, what: str):
        """Count one operation; an exception inside it counts as failed."""
        self.attempt()
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - a failed repetition is data
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def check(self, name: str, holds: bool) -> None:
        """Record one output check (one attempted operation)."""
        self.attempt()
        holds = bool(holds)
        self.checks[name] = holds and self.checks.get(name, True)
        if not holds:
            self.fail(f"check failed: {name}")

    @property
    def correct(self) -> bool:
        # A check that does not hold is a failed operation too.
        return self.failed == 0

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile90(values: Sequence[float]) -> float:
    """The 90th percentile (inclusive method; one value is its own p90)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def mask_digest(masks: Iterable[np.ndarray]) -> str:
    """SHA-256 over accept masks, in order (bit-exactness fingerprint)."""
    digest = hashlib.sha256()
    for mask in masks:
        mask = np.asarray(mask, dtype=bool)
        digest.update(np.int64(mask.size).tobytes())
        digest.update(np.packbits(mask).tobytes())
    return digest.hexdigest()


def _vm_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def peak_rss_mib(worker_pids: Sequence[int] = ()) -> float:
    """Peak RSS of this process plus each live pool worker, in MiB.

    Pages a worker shares with the parent after fork count in both, so
    the sum is an upper bound on the memory the run held.
    """
    try:
        total = _vm_hwm_mib(os.getpid())
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in worker_pids:
        try:
            total += _vm_hwm_mib(pid)
        except (OSError, ValueError):
            continue
    return total


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def environment(workload: str, seed: int, source_root: Path) -> Dict:
    """The environment block printed beside every result."""
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(source_root),
    }


class AcceptTap:
    """Capture the final accept mask of every screened lot, by lot id.

    ``ScreeningLine.screen_lot`` keeps its accept masks local; the tap
    records the mask it hands to ``PopulationBistResult`` (one call per
    lot, so the cost is constant) and files it under the report's lot id
    when the screening returns.
    """

    def __init__(self) -> None:
        self.masks: Dict[str, np.ndarray] = {}
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> "AcceptTap":
        import repro.production.line as line_module

        make_result = line_module.PopulationBistResult
        screen_lot = line_module.ScreeningLine.screen_lot
        local, masks = self._local, self.masks

        def recording_result(*args, **kwargs):
            result = make_result(*args, **kwargs)
            local.accepted = result.accepted
            return result

        def recording_screen_lot(line, *args, **kwargs):
            report = screen_lot(line, *args, **kwargs)
            masks[report.lot_id] = local.accepted
            return report

        self._undo = [(line_module, "PopulationBistResult", make_result),
                      (line_module.ScreeningLine, "screen_lot", screen_lot)]
        line_module.PopulationBistResult = recording_result
        line_module.ScreeningLine.screen_lot = recording_screen_lot
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> Dict[str, np.ndarray]:
        """The masks captured so far; the tap starts empty again."""
        masks = dict(self.masks)
        self.masks.clear()
        return masks


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def split_seeds(seed: int, n: int) -> Tuple[int, ...]:
    """``n`` independent integer seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(n)
    return tuple(int(s) for s in state)
