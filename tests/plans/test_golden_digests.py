"""Every golden plan prints the same bytes in every environment.

The digests are those of ``repro run <plan>`` with NumPy installed, before
NumPy left the runtime; the tests pass unchanged where NumPy is not
importable, and with the C kernel hidden.  The Zipf plans (``multisource``,
``q1``, ``q3``, ``q4``, ``smoke``, ``table1``) printed different numbers
in the two environments while the Zipf stream depended on NumPy.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import cascade_kernel
from repro.cli import main
from repro.plans import golden_plan_names

SRC = Path(__file__).resolve().parents[2] / "src"

GOLDEN_SHA256 = {
    "adversarial": "bb57a6d6fba1745776e11c71140506f585e5357abd1ad795fc121c20184784bf",
    "corpus": "515af9b8f0ecb41fbb3ed157958904b4b21f2af19bbc03d4ada804e6a0644a27",
    "datacenter": "6134467daf35e2e2d9097c1b9345e5de37923a23341715b8f2e9081dd0766472",
    "multisource": "fc085bd382daf38268b6171fe18beccad3587ab978a93e3f367473534186fdb8",
    "q1": "2f3232996853a825410b6e5c7094df43788766b9411a2f87eef0e9387c550074",
    "q2": "01900e4d885c9601efe743c3c15760aa835b49fa769c1e72228dabc5f1be6c1c",
    "q3": "8ef2fa1aa587fc9bfdb18f799f65bdf327a6a1ccc2cb0227f85ffd828a52378c",
    "q4": "2203c5dfe71cac0ce6bc901ec0cdb111537313abe846d201f612f4dc5bf4c999",
    "q5": "040026f42761ee54d80d91e95b94eefd83a504fdf312d315296a6e93ead291a0",
    "smoke": "c29affa0b845447660b6c7ebfe56549be9a273afb90612d12a5483657f337f48",
    "table1": "eb7ec16e5f1834c0c9d36e3e553b0a4ebab6a3d8235f2d42d373f5d48a8f1f8a",
}


def test_every_golden_plan_is_pinned():
    assert sorted(GOLDEN_SHA256) == golden_plan_names()


@pytest.mark.parametrize("kernel", ["loaded", "hidden"])
@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_output_digest(name, kernel, capsys, monkeypatch):
    if kernel == "hidden":
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
    assert main(["run", name]) in (0, None)
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == GOLDEN_SHA256[name]


#: Imports ``repro``, then runs a Zipf figure plan and two network plans,
#: and fails if any step imported NumPy or networkx.
AUDIT = """
import contextlib, io, sys
import repro
from repro.cli import main
HEAVY = ("numpy", "networkx")
def loaded():
    return [name for name in HEAVY if name in sys.modules]
steps = [("import repro", loaded())]
for plan in ("q3", "multisource", "datacenter"):
    with contextlib.redirect_stdout(io.StringIO()):
        main(["run", plan])
    steps.append(("repro run " + plan, loaded()))
imported = [step + " (" + ", ".join(names) + ")" for step, names in steps if names]
sys.exit("imported by: " + ", ".join(imported) if imported else 0)
"""


def test_runtime_never_imports_numpy():
    """Neither NumPy nor networkx is loaded by the runtime."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", AUDIT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
