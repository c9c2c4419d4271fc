"""The project's pytest configuration reports a failing Hypothesis property.

`filterwarnings = ["error"]` turns every warning into an error, including
warnings raised inside pytest plugins. Hypothesis's failure hook imports
its patch writer, which can warn on import; unfiltered, that ends the
session in INTERNALERROR with no falsifying example.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    text = out.stdout + out.stderr
    assert "INTERNALERROR" not in text, text
    assert out.returncode == 1, text
    assert "Falsifying example" in text, text
