"""The repository's pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(REPO_ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
