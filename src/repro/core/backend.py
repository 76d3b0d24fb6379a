"""NumPy gating for the vectorised batch-serve ports.

Placement state always lives in plain lists.  When NumPy is importable and a
request chunk arrives as an ndarray,
:meth:`repro.algorithms.base.OnlineTreeAlgorithm.serve_batch` settles it with
the vectorised ports (static trees and root-promoting algorithms); every other
chunk runs the scalar fast loop.  Both paths produce bit-identical
placements, ledger totals and per-request cost records — the ports are purely
a throughput optimisation.  This module is the single source of truth for
NumPy availability.

Everything here reads :data:`HAS_NUMPY` at call time (not import time) so the
test suite can simulate a NumPy-less environment by monkeypatching one module
attribute.
"""

from __future__ import annotations

from typing import Dict

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

__all__ = ["HAS_NUMPY", "np", "node_levels_view"]


#: Cached node-level lookup tables keyed by tree size (shared, read-only).
_LEVEL_TABLES: Dict[int, "np.ndarray"] = {}


def node_levels_view(n_nodes: int) -> "np.ndarray":
    """Return the cached level-of-node lookup array for a tree of ``n_nodes``.

    The NumPy mirror of :func:`repro.core.tree.node_levels_table` — built
    from it, so the bit-length identity in ``tree.py`` stays the single
    authoritative definition.  The table turns the per-request bit-length
    computation into one fancy-index over the whole chunk; it is computed
    once per tree size and shared read-only.
    """
    table = _LEVEL_TABLES.get(n_nodes)
    if table is None:
        from repro.core.tree import node_levels_table

        table = np.asarray(node_levels_table(n_nodes), dtype=np.intp)
        table.setflags(write=False)
        _LEVEL_TABLES[n_nodes] = table
    return table
