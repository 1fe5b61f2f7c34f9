"""The repository's pytest settings report a failing hypothesis test as a
failure and keep the session running."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def test_failing_hypothesis_test_is_reported_without_internal_error(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "1 failed" in out, out
    assert "INTERNALERROR" not in out, out
