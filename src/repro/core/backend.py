"""NumPy gating: the single source of truth for NumPy availability.

Placement state always lives in plain lists, request chunks are lists or
the C kernel's ``array('q')`` buffers, and every chunk runs the kernel or
the scalar fast loop.  NumPy is not on that path.  When importable, it
builds the Zipf workloads' CDF tables and draws their NumPy-generator
stream (:mod:`repro.workloads.zipf`), which the kernel's PCG64 port is
checked against.

Everything here reads :data:`HAS_NUMPY` at call time (not import time) so the
test suite can simulate a NumPy-less environment by monkeypatching one module
attribute.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

__all__ = ["HAS_NUMPY", "np"]

