import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property(x):
    assert x < 10
'''


def test_failing_property_reports_its_example(tmp_path):
    # on failure the hypothesis plugin imports modules that raise a
    # DeprecationWarning; under "error" alone that ends the run in INTERNALERROR
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "-c", str(PYPROJECT), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
