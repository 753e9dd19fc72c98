"""Kill-and-resume convergence, end to end through the real CLI.

The acceptance artefact of the checkpoint/resume design: a ``repro
serve`` process SIGKILLed mid-stream — no atexit, no cleanup, a torn
journal tail fully possible — restarted with ``--resume``, produces a
final ledger **byte-identical** to an uninterrupted run of the same
request stream.  This is the same drill the CI ``serve-smoke`` job runs.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: Enough work to journal across several shard completions: three noisy
#: full-BIST lots of 4096 devices (four shards each at the default
#: 1024-device shard size).
REQUESTS = "".join(
    json.dumps({"scenario": {
        "architecture": "flash", "method": "bist", "n_bits": 6, "q": q,
        "n_devices": 4096, "transition_noise_lsb": 0.05}}) + "\n"
    for q in (2, 3, 4))


def _serve(extra, stdin_text=None, timeout=180):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
         "--seed", "7", *extra],
        input=stdin_text, capture_output=True, text=True, env=env,
        cwd=str(REPO), timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result


class TestKillAndResume:
    def test_sigkilled_server_resumes_to_identical_ledger(self, tmp_path):
        reference = tmp_path / "reference.txt"
        resumed = tmp_path / "resumed.txt"
        ckpt = tmp_path / "serve.ckpt"

        # The uninterrupted reference run.
        _serve(["--ledger", str(reference)], stdin_text=REQUESTS)
        assert reference.read_text().strip()

        # The victim: feed the full stream, hold stdin open so the
        # server keeps serving, SIGKILL as soon as the journal shows all
        # three requests and at least one completed shard.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        # Own session: the SIGKILL goes to the process *group*, so the
        # forked pool workers die with their parent instead of lingering
        # as orphans (a parent-only SIGKILL cannot reap them).
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
             "--seed", "7", "--checkpoint", str(ckpt)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, text=True, env=env, cwd=str(REPO),
            start_new_session=True)
        try:
            victim.stdin.write(REQUESTS)
            victim.stdin.flush()
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if ckpt.exists():
                    kinds = []
                    for line in ckpt.read_text().splitlines():
                        try:
                            kinds.append(json.loads(line).get("kind"))
                        except ValueError:
                            pass  # torn in-progress line
                    if (kinds.count("request") >= 3
                            and kinds.count("shard") >= 1):
                        break
                time.sleep(0.02)
            else:
                pytest.fail("journal never reached 3 requests + 1 shard")
        finally:
            # SIGKILL the whole group: no cleanup, no atexit, and no
            # orphaned workers left behind either.
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            victim.stdin.close()

        # The journal survived the SIGKILL with all three requests.
        assert ckpt.exists()

        # Resume: journaled shards replay, unfinished ones dispatch,
        # and the ledger converges byte-for-byte.
        result = _serve(["--resume", str(ckpt), "--ledger", str(resumed)],
                        stdin_text="")
        events = [json.loads(line)
                  for line in result.stdout.splitlines() if line.strip()]
        assert [e for e in events if e["event"] == "resumed"]
        assert not [e for e in events if e["event"] == "error"]
        assert resumed.read_text() == reference.read_text()
