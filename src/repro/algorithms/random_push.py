"""Random-Push: the randomised push-down algorithm of Avin et al. (LATIN 2020).

Upon a request to an element ``e*`` at level ``d*``, Random-Push chooses a node
``v`` uniformly at random among all level-``d*`` nodes (including ``nd(e*)``)
and executes the augmented push-down operation ``PD(nd(e*), v)``.  The original
analysis showed a competitive ratio of 60 using the working-set property;
Theorem 11 of the rotor-walk paper improves this to 16 with a much simpler
potential argument.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.core.pushdown import apply_pushdown_cycle, apply_pushdown_swaps
from repro.core.state import TreeNetwork
from repro.types import ElementId, Level

__all__ = ["RandomPush"]


class RandomPush(OnlineTreeAlgorithm):
    """Randomised push-down algorithm (Random-Push / ``Rand``).

    Parameters
    ----------
    network:
        Tree network to operate on.
    seed:
        Seed of the algorithm's private random generator (the left/right
        choices of the implicit random walk).  Runs with equal seeds and equal
        inputs are identical, which the experiments rely on.
    exact_swaps:
        Same meaning as for :class:`repro.algorithms.rotor_push.RotorPush`.
    """

    name = "random-push"
    is_deterministic = False
    is_self_adjusting = True
    kernel = "random_push"

    def __init__(
        self,
        network: TreeNetwork,
        seed: Optional[int] = None,
        exact_swaps: bool = False,
    ) -> None:
        super().__init__(network)
        self._rng = random.Random(seed)
        self.exact_swaps = exact_swaps

    def _adjust(self, element: ElementId, level: Level) -> None:
        if level == 0:
            return
        tree = self.network.tree
        offset = self._rng.randrange(tree.level_size(level))
        target = tree.node_at(level, offset)
        source = self.network.node_of(element)
        if self.exact_swaps:
            apply_pushdown_swaps(self.network, source, target)
        else:
            apply_pushdown_cycle(self.network, source, target)
