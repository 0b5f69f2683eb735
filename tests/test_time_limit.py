"""The per-test time limit of conftest.py fails a test that runs too long."""

import signal
import subprocess
import sys
from pathlib import Path

import conftest

TESTS = Path(__file__).resolve().parent

# a pytest run with conftest.py as a plugin and its limit lowered to
# 0.2 s; afterwards it prints whether SIGALRM's handler and timer are back
RUN = """
import signal, sys
import pytest
import conftest
conftest.TEST_TIME_LIMIT_S = 0.2
code = pytest.main(["-q", "-p", "no:cacheprovider", "-p", "conftest", "test_sleeps.py"])
print("restored", signal.getsignal(signal.SIGALRM) is signal.SIG_DFL,
      signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0))
sys.exit(code)
"""


def test_a_running_test_has_the_timer_armed():
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= conftest.TEST_TIME_LIMIT_S


def test_a_test_past_the_limit_fails_with_its_name(tmp_path):
    (tmp_path / "test_sleeps.py").write_text(
        "import time\n\n\ndef test_quick():\n    pass\n\n\n"
        "def test_sleeps():\n    time.sleep(60)\n"
    )
    src = TESTS.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", RUN],
        cwd=tmp_path,
        env={"PYTHONPATH": f"{src}:{TESTS}", "PATH": ""},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 1
    assert "test_sleeps.py::test_sleeps ran past the 0.2 s test time limit" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert "restored True True" in done.stdout
