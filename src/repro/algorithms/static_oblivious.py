"""Static-Oblivious: the demand-oblivious tree that never adjusts.

The baseline of the paper's empirical section: the initial tree (elements
placed uniformly at random) is kept for the whole sequence and every request is
served at its static access cost.  It incurs zero adjustment cost and serves as
the reference point for the "cost difference" plots (Q1 and Q4).
"""

from __future__ import annotations

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.types import ElementId, Level

__all__ = ["StaticOblivious"]


class StaticOblivious(OnlineTreeAlgorithm):
    """Keep the initial (random) placement forever; never swap."""

    name = "static-oblivious"
    is_deterministic = True
    is_self_adjusting = False
    kernel = "static_oblivious"

    def _adjust(self, element: ElementId, level: Level) -> None:
        # Demand-oblivious: no reconfiguration, ever.
        return
