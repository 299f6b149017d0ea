"""The repository's pytest settings report every test, even after a
failing hypothesis test.

pytest turns warnings into errors. On a failure hypothesis imports
libcst, whose import warns that mypy_extensions.TypedDict is
deprecated; raised inside pytest's report hook, that warning ended the
session, so no later test ran. The settings ignore that one warning.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHILD_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_leaves_the_next_test_to_run(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD_TESTS)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True).stdout
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
