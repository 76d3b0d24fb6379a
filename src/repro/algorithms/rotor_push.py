"""Rotor-Push: the paper's deterministic self-adjusting tree algorithm.

Upon a request to an element ``e*`` currently at level ``d*``, Rotor-Push

1. fixes ``v = P^T_{d*}``, the level-``d*`` node of the global path induced by
   the rotor pointers (possibly ``v = nd(e*)``),
2. executes the augmented push-down operation ``PD(nd(e*), v)``, which moves
   ``e*`` to the root and pushes the elements of the global path one level
   down, and
3. executes ``flip(d*)``, toggling the pointers of the global-path nodes above
   level ``d*``.

Theorem 7 of the paper shows this deterministic algorithm is 12-competitive
even though (Lemma 8) it does not have the working-set property.
"""

from __future__ import annotations

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.core.pushdown import apply_pushdown_cycle, apply_pushdown_swaps
from repro.core.state import TreeNetwork
from repro.exceptions import AlgorithmError
from repro.types import ElementId, Level

__all__ = ["RotorPush"]


class RotorPush(OnlineTreeAlgorithm):
    """Deterministic push-down algorithm driven by rotor (Propp-machine) pointers.

    Parameters
    ----------
    network:
        Tree network to operate on; it must carry a rotor state (use
        :meth:`OnlineTreeAlgorithm.for_tree`, which attaches one automatically).
    exact_swaps:
        When ``True`` the augmented push-down is realised by explicit adjacent
        swaps (the Lemma-1 procedure); when ``False`` (default) the equivalent
        cyclic shift is applied directly and the same swap count is charged
        analytically.  Both paths yield identical configurations and costs.
        The kernel's chunk function always applies the cyclic shift, which
        is configuration- and cost-identical by Lemma 1.
    """

    name = "rotor-push"
    is_deterministic = True
    is_self_adjusting = True
    kernel = "rotor_push"

    def __init__(self, network: TreeNetwork, exact_swaps: bool = False) -> None:
        super().__init__(network)
        if network.rotor is None:
            raise AlgorithmError("Rotor-Push requires a network with rotor pointers")
        self.exact_swaps = exact_swaps

    @classmethod
    def _needs_rotor(cls) -> bool:
        return True

    def _adjust(self, element: ElementId, level: Level) -> None:
        if level == 0:
            # The element already occupies the root: PD is trivial and flip(0)
            # toggles no pointers.
            return
        rotor = self.network.rotor
        # flip(d) returns the global path *before* toggling, whose level-d node
        # is exactly the push-down target v; PD only moves elements and flip
        # only moves pointers, so the two commute and we save one path walk.
        path_before = rotor.flip(level)
        target = path_before[level]
        source = self.network.node_of(element)
        if self.exact_swaps:
            apply_pushdown_swaps(self.network, source, target)
        else:
            apply_pushdown_cycle(self.network, source, target)
