"""Move-To-Front-on-a-tree: the natural but non-competitive baseline.

The immediate generalisation of the classic Move-To-Front list-update rule:
upon a request, swap the accessed element along its access path all the way to
the root, pushing every element on that path one level down.  Section 1.1 of
the paper observes that this strategy has competitive ratio
``Omega(log n / log log n)``: a round-robin sequence over one root-to-leaf path
keeps costing ``Theta(log n)`` per request while the offline optimum packs
those elements into the first ``Theta(log log n)`` levels.

The algorithm is included as an instructive baseline and as the subject of the
lower-bound experiment in :mod:`repro.workloads.adversarial`.
"""

from __future__ import annotations

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.types import ElementId, Level

__all__ = ["MoveToFrontTree"]


class MoveToFrontTree(OnlineTreeAlgorithm):
    """Promote the accessed element to the root along its own access path."""

    name = "move-to-front"
    is_deterministic = True
    is_self_adjusting = True
    kernel = "move_to_front"

    def _adjust(self, element: ElementId, level: Level) -> None:
        node = self.network.node_of(element)
        while node != self.network.tree.root:
            node = self.network.swap_with_parent(node)
