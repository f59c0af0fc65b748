"""The repository's pytest configuration, run on a probe file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate], max_examples=1)
@given(st.just(7))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # warnings are errors under the repo's configuration; the hypothesis
    # plugin's report hook must not turn one failing @given test into an
    # INTERNALERROR that stops the session before later tests run
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "--assert=plain", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
    assert run.returncode == 1
