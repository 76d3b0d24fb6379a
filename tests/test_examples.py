"""Every script under ``examples/`` runs to completion and prints something.

Each script runs in a fresh interpreter with ``src`` on the path, from a
temporary working directory, so ``regenerate_experiments.py`` writes its
``EXPERIMENTS.md`` there and not into the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
