"""Replay pin: the benchmark's three workloads, run end to end at seed 1,
must keep printing the same replay digest.

The digest hashes every round's slots, prices and admission decisions, so a
refactor that changes any simulated outcome changes it. When a change is
meant to alter behaviour, update the pinned digest and say why.

A digest holds per numpy release and BLAS kernel. The fsp learners' matrix
products run in OpenBLAS, which picks its kernel for the host it runs on, and
the kernels round differently. So every run here forces one kernel,
`conftest.PINNED_BLAS_CORETYPE`, through OPENBLAS_CORETYPE, whatever the
calling shell sets. crowd runs no BLAS product, so its digests hold under any
kernel.

The short pins stop at round 60 or earlier. A second fsp-train pin plays
rounds 0..153, past round 100, where the learners' eta sits at its floor
and most deciding agents execute the behavioural action, so the actor
runs for few of them: the regime the benchmark measures. A second crowd
pin plays rounds 0..69, well past crowd's 30 warm-up rounds. A second
fsp-eval pin plays rounds 0..249, past the warm-up and many times round
the learners' 8-step observation window.

A traced run wraps the learner's entry points (`pool.update`,
`behavior.store`, `behavior.train_step` among them) in timing spans, and
fails `correct` when its digest differs from the untraced pass's. All three
workloads run traced: fsp-train, fsp-eval, whose frozen fleet never draws
the critic or the behaviour model that some of those spans wrap, and crowd,
whose spans wrap the engine's `schedule`, the workload's sampling and
arrivals, the clearing, the feedback, the passive fleet's `act` and
`decide_round`.
"""
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def pinned_blas_coretype() -> str:
    """conftest.PINNED_BLAS_CORETYPE, loaded by path: when perfbench/tests is
    collected too, the module name `conftest` may hold that directory's."""
    spec = importlib.util.spec_from_file_location("tier1_conftest", Path(__file__).with_name("conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PINNED_BLAS_CORETYPE


PINNED_DIGESTS = {
    "crowd": "949487df88d0ebb2",
    "fsp-train": "e6418e649bd47ffc",
    "fsp-eval": "60dfe6588501e01e",
}


def replay_digests(workload, seconds, trace=0):
    """The digests a correct seed-1 run prints: one untraced, or the
    untraced and the traced pass's."""
    args = ["--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "OPENBLAS_CORETYPE": pinned_blas_coretype()}
    out = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=170, env=env)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    digests = re.findall(r"^replay_digest (?:\(\w+\) )?(\w+)", out.stdout, re.MULTILINE)
    assert len(digests) == 1 + trace, out.stdout
    return digests


def replay_digest(workload, seconds):
    (digest,) = replay_digests(workload, seconds)
    return digest


@pytest.mark.parametrize("workload", sorted(PINNED_DIGESTS))
def test_replay_digest_is_pinned(workload):
    assert replay_digest(workload, 0.1) == PINNED_DIGESTS[workload]


def test_fsp_train_digest_is_pinned_past_the_eta_floor():
    assert replay_digest("fsp-train", 6) == "c1511ab3cfe77b78"


def test_crowd_digest_is_pinned_past_the_warm_up():
    assert replay_digest("crowd", 3) == "0ffb60b4471045a0"


def test_fsp_eval_digest_is_pinned_past_the_window_wrap():
    assert replay_digest("fsp-eval", 3) == "d8363d144ded4735"


def test_traced_fsp_train_run_matches_the_untraced_digest():
    assert replay_digests("fsp-train", 6, trace=1) == ["c1511ab3cfe77b78"] * 2


def test_traced_fsp_eval_run_matches_the_untraced_digest():
    # the spans wrap the behaviour model of a frozen fleet that never draws it
    assert replay_digests("fsp-eval", 0.1, trace=1) == [PINNED_DIGESTS["fsp-eval"]] * 2


def test_traced_crowd_run_matches_the_untraced_digest():
    assert replay_digests("crowd", 0.1, trace=1) == [PINNED_DIGESTS["crowd"]] * 2
