"""The repository's pytest settings report a failing property test as a plain failure."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=20)
@given(st.integers(0, 10))
def test_small(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # with every warning an error, a third-party DeprecationWarning raised in
    # Hypothesis' report hook used to end the session as INTERNALERROR (exit 3)
    (tmp_path / "test_failing.py").write_text(_FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_small(" in proc.stdout
    assert "1 failed" in proc.stdout
