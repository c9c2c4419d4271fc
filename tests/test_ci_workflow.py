"""The numpy release of the replay pins has two homes, which must agree.

numpy's Generator promises no stream stability across releases (NEP 19),
so the digests in test_replay_pin.py hold for one release. `PINNED_NUMPY`
in tests/conftest.py names it in the report header, and the Tier-1 CI
workflow installs it. A bump of one without the other would leave CI
checking the pins against a release that the header does not name.
"""
import importlib.util
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tier1.yml"


def pinned_numpy() -> str:
    spec = importlib.util.spec_from_file_location("tier1_conftest", TESTS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PINNED_NUMPY


def test_workflow_installs_the_pinned_numpy():
    installs = re.findall(r"\bnumpy==([^\s\"']+)", WORKFLOW.read_text())
    assert installs, f"{WORKFLOW.name} pins no numpy release"
    assert set(installs) == {pinned_numpy()}, installs
