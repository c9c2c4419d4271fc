"""Replay pin: the benchmark's three workloads, run end to end at seed 1,
must keep printing the same replay digest.

The digest hashes every round's slots, prices and admission decisions, so a
refactor that changes any simulated outcome changes it. When a change is
meant to alter behaviour, update the pinned digest and say why. Every pin
is one entry of `PINNED_DIGESTS`, keyed by (workload, seconds), and

    OPENBLAS_CORETYPE=Haswell python perfbench/run.py --workload fsp-train --seed 1 --seconds 6

prints the `replay_digest` of its key ("fsp-train", 6).

The fsp pins also encode the learners' draw schedule: which rounds draw
from which agent's act stream, in what order. Only a deciding agent draws,
its noise vector and then its eta coin, so a change to who draws when
moves the fsp digests even where each action's law is unchanged. crowd's
passive fleet draws nothing, so its pins do not move with the schedule.

A digest holds per numpy release and BLAS kernel. The fsp learners' matrix
products run in OpenBLAS, which picks its kernel for the host it runs on, and
the kernels round differently. So every run here forces one kernel,
`conftest.PINNED_BLAS_CORETYPE`, through OPENBLAS_CORETYPE, whatever the
calling shell sets. crowd runs no BLAS product, so its digests hold under any
kernel.

Every pin, crowd's included, also encodes the arrival-gap sampler. A gap is
drawn by inversion, -log1p(-u) / rate from one uniform word, so a change of
sampler moves every digest even where each gap's law is unchanged, and the
digests hold per C library too: the gaps go through its `log1p`, which the
pytest report header names.

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


SHORT = 0.1  # seconds of the short pins
PINNED_DIGESTS = {
    ("crowd", SHORT): "a679a25bb6c43050",
    ("fsp-train", SHORT): "b3956e5b6ac6d561",
    ("fsp-eval", SHORT): "09d6aed15e1ffd52",
    ("fsp-train", 6): "1939274de617acfa",
    ("crowd", 3): "5b2b52c08ca6854f",
    ("fsp-eval", 3): "4010b5fdb2466f64",
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


def assert_pinned(workload, seconds, trace=0):
    assert replay_digests(workload, seconds, trace) == [PINNED_DIGESTS[workload, seconds]] * (1 + trace)


@pytest.mark.parametrize("workload", ["crowd", "fsp-eval", "fsp-train"])
def test_replay_digest_is_pinned(workload):
    assert_pinned(workload, SHORT)


def test_fsp_train_digest_is_pinned_past_the_eta_floor():
    assert_pinned("fsp-train", 6)


def test_crowd_digest_is_pinned_past_the_warm_up():
    assert_pinned("crowd", 3)


def test_fsp_eval_digest_is_pinned_past_the_window_wrap():
    assert_pinned("fsp-eval", 3)


def test_traced_fsp_train_run_matches_the_untraced_digest():
    assert_pinned("fsp-train", 6, trace=1)


def test_traced_fsp_eval_run_matches_the_untraced_digest():
    # the spans wrap the behaviour model of a frozen fleet that never draws it
    assert_pinned("fsp-eval", SHORT, trace=1)


def test_traced_crowd_run_matches_the_untraced_digest():
    assert_pinned("crowd", SHORT, trace=1)
