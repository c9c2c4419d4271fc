"""Replay pin: the benchmark's three workloads, run end to end at seed 1,
must keep printing the same replay digest.

The digest hashes every round's slots, prices and admission decisions, so a
refactor that changes any simulated outcome changes it. When a change is
meant to alter behaviour, update the pinned digest and say why.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

PINNED_DIGESTS = {
    "crowd": "949487df88d0ebb2",
    "fsp-train": "e98b7dd83db3af2b",
    "fsp-eval": "e5b682c69ca71125",
}


@pytest.mark.parametrize("workload", sorted(PINNED_DIGESTS))
def test_replay_digest_is_pinned(workload):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    out = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    digest = re.search(r"^replay_digest (\w+)", out.stdout, re.MULTILINE)
    assert digest is not None, out.stdout
    assert digest.group(1) == PINNED_DIGESTS[workload]
