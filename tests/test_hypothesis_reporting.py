"""A failing Hypothesis property test is reported as a failure.

On a failure Hypothesis imports ``hypothesis.extra._patching``, whose
import chain raises a ``DeprecationWarning`` that ``pytest.ini`` turns into
an error inside pytest's report hook.  ``tests/conftest.py`` imports that
module ahead of time; this runs pytest in a subprocess, with the suite's
``pytest.ini`` and ``conftest.py``, on one property test that must fail.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
'''


def test_a_failing_property_test_is_reported_as_one_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING)
    paths = [str(ROOT / "src"), str(TESTS)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pytest.ini"), "--rootdir", str(tmp_path),
            "-p", "conftest", "test_property.py",
        ],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert done.returncode == 1, output
    assert "1 failed" in output, output
