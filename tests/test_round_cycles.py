"""A round makes no reference cycles: every benchmark workload plays its
rounds with the cyclic garbage collector off and leaves nothing for it.

Reference counting then frees all of a round's garbage, so a full
collection finds nothing, and freezing the set-up heap can spare the
rounds the collector's scans. A change that makes a cycle per round fails
here instead of paying for the collector silently.
"""
import gc
import importlib.util
import sys
from pathlib import Path

import pytest

SCENARIO = Path(__file__).resolve().parents[1] / "perfbench" / "scenario.py"
ROUNDS = 40


def load_scenario():
    """perfbench/scenario.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("bench_scenario", SCENARIO)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


scenario = load_scenario()


@pytest.mark.parametrize("workload", sorted(scenario.WORKLOADS))
def test_rounds_leave_no_cycle_to_collect(workload):
    scn = scenario.Scenario(scenario.WORKLOADS[workload], 1)
    gc.collect()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            scn.play_round()
    finally:
        gc.enable()
    assert gc.collect() == 0
