"""Max-Push (Strict-MRU): keep elements in most-recently-used order.

Algorithm 2 of the paper: upon accessing element ``e`` at depth ``k``, move
``e`` to the root and demote, for every level ``j < k``, the least recently
used element of level ``j`` one level down; the least recently used element of
level ``k`` finally takes the vacated node ``nd(e)``.  The resulting tree is a
*strict MRU tree*: on every root-to-leaf path, elements are ordered by recency
of use.  This gives optimal access costs (the working-set property holds by
construction) but the adjustment cost per request can be quadratic in the
access depth, because each demoted element may have to travel across the tree.

The paper lists its competitive ratio as an open question (Table 1); the
empirical section shows its adjustment cost dominates in every scenario.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.lru_index import LevelLRUIndex
from repro.core.state import TreeNetwork
from repro.types import ElementId, Level, NodeId

__all__ = ["MaxPush"]


class MaxPush(OnlineTreeAlgorithm):
    """Strict-MRU maintenance via per-level demotion of the least recent element."""

    name = "max-push"
    is_deterministic = True
    is_self_adjusting = True
    kernel = "max_push"

    def __init__(self, network: TreeNetwork) -> None:
        super().__init__(network)
        self._lru = LevelLRUIndex(network)

    def _adjust(self, element: ElementId, level: Level) -> None:
        self._lru.record_access(element)
        if level == 0:
            return
        tree = self.network.tree
        root = tree.root

        # The demotion cascade: the old root element goes to the node of the
        # least-recently-used element of level 1, which goes to the node of the
        # LRU element of level 2, and so on; the LRU element of level `level`
        # finally takes the node vacated by the accessed element.
        victims: List[ElementId] = []
        for depth in range(1, level + 1):
            victims.append(self._lru.least_recently_used(depth, exclude=element))

        source = self.network.node_of(element)
        cycle: List[NodeId] = [root]
        cycle.extend(self.network.node_of(victim) for victim in victims)
        cycle.append(source)

        # Adjustment cost of an adjacent-swap realisation: the accessed element
        # climbs `level` edges to the root, and every relocated element travels
        # the tree distance between consecutive cycle nodes.
        swaps = level
        for index in range(1, len(cycle)):
            swaps += tree.distance(cycle[index - 1], cycle[index])

        self.network.apply_cycle(cycle, charged_swaps=swaps)

        # Book-keeping for the LRU index: the accessed element is now at the
        # root, every victim moved one level down, except the last victim which
        # moved to the accessed element's old level (== its own level).
        self._lru.move(element, 0)
        old_root_element = self.network.element_at(cycle[1])
        self._lru.move(old_root_element, 1)
        for depth, victim in enumerate(victims[:-1], start=1):
            self._lru.move(victim, depth + 1)
        # victims[-1] stays on level `level`.
