"""NumPy gating: the single source of truth for NumPy availability.

Placement state always lives in plain lists and every chunk runs the C
cascade kernel or the scalar fast loop.  NumPy, when importable, is the
transport of the request chunks (``iter_requests(..., as_array=True)``),
which the kernel reads where they lie, and the Zipf workloads' CDF tables.

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

