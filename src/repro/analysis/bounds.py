"""Cost lower bounds and empirical competitive-ratio estimation.

Competitive analysis compares an online algorithm's cost to the offline
optimum.  The true optimum is intractable to compute for interesting sizes, so
the library exposes the standard lower bounds used by the paper:

* the *working-set bound* ``WS(sigma)`` (shown in the LATIN 2020 paper to lower
  bound every algorithm up to a constant factor),
* the trivial bound of one unit per request (every access costs at least 1),
* the *static optimum* cost (the best fixed frequency-ordered tree, a valid
  lower bound for any algorithm that never adjusts and a useful reference for
  self-adjusting ones).

:func:`empirical_competitive_ratio` divides an algorithm's measured cost by
:attr:`LowerBounds.best`, the larger of the trivial and working-set bounds.
That quotient is no bound on the competitive ratio in either direction: the
working-set bound holds only up to a constant factor, so it can exceed the
offline optimum.  On 700 requests cycling over the 7 elements of a 7-node
tree, WS is 1,957.8 against an exact optimum of 1,700, and Static-Opt's
quotient reads 0.868.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.algorithms.base import RunResult
from repro.algorithms.static_opt import frequency_placement
from repro.analysis.working_set import working_set_bound
from repro.core.tree import CompleteBinaryTree
from repro.exceptions import AlgorithmError
from repro.types import ElementId

__all__ = [
    "LowerBounds",
    "static_optimum_cost",
    "compute_lower_bounds",
    "empirical_competitive_ratio",
]


@dataclass(frozen=True)
class LowerBounds:
    """Collection of lower bounds on the total cost of serving one sequence.

    Attributes
    ----------
    trivial:
        One unit per request.
    working_set:
        The working-set bound ``WS(sigma)`` (in cost units).
    static_optimum:
        Cost of the best static frequency-ordered tree (no adjustments).
    """

    trivial: float
    working_set: float
    static_optimum: float

    @property
    def best(self) -> float:
        """The largest of the three bounds (never below 1 for non-empty sequences)."""
        return max(self.trivial, self.working_set, 0.0)


def static_optimum_cost(n_nodes: int, sequence: Sequence[ElementId]) -> float:
    """Return the total access cost of the optimal *static* tree for ``sequence``.

    Elements are placed by decreasing frequency in BFS order (the Static-Opt
    placement); the cost of a request is the element's level plus one.
    """
    tree = CompleteBinaryTree(n_nodes)
    placement = frequency_placement(n_nodes, sequence)
    level_of_element = {
        element: tree.level(node) for node, element in enumerate(placement)
    }
    counts = Counter(sequence)
    return float(
        sum(count * (level_of_element[element] + 1) for element, count in counts.items())
    )


def compute_lower_bounds(
    n_nodes: int,
    sequence: Sequence[ElementId],
    include_static: bool = True,
) -> LowerBounds:
    """Compute all lower bounds for serving ``sequence`` on an ``n_nodes`` tree."""
    trivial = float(len(sequence))
    ws_bound = working_set_bound(sequence)
    static_cost = (
        static_optimum_cost(n_nodes, sequence) if include_static else math.inf
    )
    return LowerBounds(
        trivial=trivial,
        working_set=ws_bound,
        static_optimum=static_cost,
    )


def empirical_competitive_ratio(
    result: RunResult,
    sequence: Sequence[ElementId],
    bounds: Optional[LowerBounds] = None,
) -> float:
    """Return ``total_cost / bounds.best`` for one run.

    Not an estimate of the competitive ratio in either direction: the
    working-set term of :attr:`LowerBounds.best` can exceed the offline
    optimum (see the module docstring), so the quotient can fall below the
    true ratio, even below 1, as well as above it.
    """
    if result.n_requests != len(sequence):
        raise AlgorithmError(
            f"run served {result.n_requests} requests but the sequence has {len(sequence)}"
        )
    if not sequence:
        return 0.0
    if bounds is None:
        bounds = compute_lower_bounds(result.n_nodes, sequence)
    denominator = bounds.best
    if denominator <= 0:
        raise AlgorithmError("lower bound is non-positive; cannot form a ratio")
    return result.total_cost / denominator
