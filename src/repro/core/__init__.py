"""Core substrate: tree geometry, rotor machinery, push-down operation, costs.

This package contains everything below the algorithm layer:

* :mod:`repro.core.tree` - the fixed complete binary tree topology;
* :mod:`repro.core.rotor` - rotor pointers, global paths, flips and flip-ranks;
* :mod:`repro.core.state` - the mutable element placement plus cost ledger;
* :mod:`repro.core.pushdown` - the augmented push-down operation ``PD(u, v)``
  and path-relocation helpers;
* :mod:`repro.core.cost` - the access/adjustment cost model.
"""

from repro import _lazy_exports

__all__ = [
    "CompleteBinaryTree",
    "CostLedger",
    "RequestCost",
    "RotorState",
    "TreeNetwork",
    "apply_pushdown_cycle",
    "apply_pushdown_swaps",
    "depth_for_size",
    "identity_placement",
    "is_complete_size",
    "pushdown_cycle_nodes",
    "pushdown_swap_cost",
    "random_placement",
    "relocate_along_path",
    "size_for_depth",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.core.cost": ("CostLedger", "RequestCost"),
    "repro.core.pushdown": (
        "apply_pushdown_cycle",
        "apply_pushdown_swaps",
        "pushdown_cycle_nodes",
        "pushdown_swap_cost",
        "relocate_along_path",
    ),
    "repro.core.rotor": ("RotorState",),
    "repro.core.state": ("TreeNetwork", "identity_placement", "random_placement"),
    "repro.core.tree": (
        "CompleteBinaryTree",
        "depth_for_size",
        "is_complete_size",
        "size_for_depth",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
