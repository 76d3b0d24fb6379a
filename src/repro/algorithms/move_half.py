"""Move-Half: the deterministic halving algorithm of Avin et al. (LATIN 2020).

Algorithm 1 of the paper: upon accessing element ``e_i`` stored at node ``u``
on level ``d``, find the element ``e_j`` with the *highest rank* (least
recently used) at depth ``floor(d / 2)``, stored at node ``v``, and exchange
the two elements by swapping them along the tree branches (``e_i`` travels to
``v`` and ``e_j`` travels back to ``u``).  All other elements keep their
positions; the adjustment cost is ``2 * dist(u, v) - 1`` adjacent swaps.

Move-Half is 64-competitive (shown in the LATIN 2020 paper); it satisfies the
working-set bound but not the per-access working-set property.
"""

from __future__ import annotations

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.lru_index import LevelLRUIndex
from repro.core.pushdown import relocate_along_path
from repro.core.state import TreeNetwork
from repro.types import ElementId, Level

__all__ = ["MoveHalf"]


class MoveHalf(OnlineTreeAlgorithm):
    """Deterministic algorithm that promotes the accessed element to half its depth."""

    name = "move-half"
    is_deterministic = True
    is_self_adjusting = True
    kernel = "move_half"

    def __init__(self, network: TreeNetwork, exact_swaps: bool = True) -> None:
        super().__init__(network)
        self._lru = LevelLRUIndex(network)
        self.exact_swaps = exact_swaps

    def _adjust(self, element: ElementId, level: Level) -> None:
        self._lru.record_access(element)
        if level == 0:
            return
        target_level = level // 2
        partner = self._lru.least_recently_used(target_level, exclude=element)
        source = self.network.node_of(element)
        target = self.network.node_of(partner)
        path = self.network.tree.path_between(source, target)
        if self.exact_swaps:
            # Carry the accessed element to the partner's node, then carry the
            # partner (now one hop short of its original node) back; the net
            # effect is an exchange of the two elements at 2*dist - 1 swaps.
            relocate_along_path(self.network, path)
            relocate_along_path(self.network, list(reversed(path[:-1])))
        else:
            distance = len(path) - 1
            self.network.apply_cycle([source, target], charged_swaps=2 * distance - 1)
        self._lru.move(element, target_level)
        self._lru.move(partner, level)
