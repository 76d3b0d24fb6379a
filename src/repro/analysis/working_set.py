"""Working sets, ranks, the working-set bound and the working-set property.

Section 2 of the paper defines, for a request sequence ``sigma``:

* the *working set* of an element ``e`` at round ``t``: the set of distinct
  elements (including ``e``) accessed since the previous access of ``e``;
* the *rank* of ``e`` at round ``t``: the size of that working set;
* the *working-set bound* ``WS(sigma) = sum_t log2(rank_t(sigma_t))``, which is
  (up to a constant factor) a lower bound on the cost of any algorithm; and
* the *working-set property* of a self-adjusting tree: every access costs
  ``O(log rank)``.

Ranks are computed with a Fenwick (binary indexed) tree over last-occurrence
positions, giving ``O(m log m)`` total time for a sequence of length ``m``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.core.cost import RequestCost
from repro.exceptions import WorkloadError
from repro.types import ElementId

__all__ = [
    "FenwickTree",
    "ranks_of_sequence",
    "working_set_bound",
    "working_set_property_ratios",
    "max_working_set_violation",
]


class FenwickTree:
    """A classic binary indexed tree over ``size`` positions supporting prefix sums."""

    __slots__ = ("_size", "_data")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise WorkloadError(f"Fenwick tree size must be non-negative, got {size}")
        self._size = size
        self._data = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` at ``index`` (0-based)."""
        if not 0 <= index < self._size:
            raise WorkloadError(f"index {index} outside Fenwick tree of size {self._size}")
        position = index + 1
        while position <= self._size:
            self._data[position] += delta
            position += position & (-position)

    def prefix_sum(self, count: int) -> int:
        """Return the sum of the first ``count`` positions (0-based, exclusive end)."""
        if count < 0 or count > self._size:
            raise WorkloadError(f"count {count} outside Fenwick tree of size {self._size}")
        total = 0
        position = count
        while position > 0:
            total += self._data[position]
            position -= position & (-position)
        return total

    def range_sum(self, start: int, end: int) -> int:
        """Return the sum over positions ``[start, end)``."""
        return self.prefix_sum(end) - self.prefix_sum(start)

    @property
    def size(self) -> int:
        """Number of positions."""
        return self._size


def ranks_of_sequence(
    sequence: Sequence[ElementId],
    first_access: str = "distinct-so-far",
    universe_size: Optional[int] = None,
) -> List[int]:
    """Return the rank (working-set size) of every request of ``sequence``.

    Parameters
    ----------
    sequence:
        The request sequence.
    first_access:
        How to rank an element's very first access: ``"distinct-so-far"``
        (default) counts the distinct elements accessed up to and including the
        request; ``"universe"`` uses ``universe_size`` (all elements count as
        potentially unseen, the most conservative choice for lower bounds).
    universe_size:
        Required when ``first_access="universe"``.
    """
    if first_access not in ("distinct-so-far", "universe"):
        raise WorkloadError(
            f"first_access must be 'distinct-so-far' or 'universe', got {first_access!r}"
        )
    if first_access == "universe" and (universe_size is None or universe_size <= 0):
        raise WorkloadError("universe_size must be given (and positive) for 'universe' mode")

    m = len(sequence)
    tree = FenwickTree(m)
    last_position: Dict[ElementId, int] = {}
    ranks: List[int] = []
    for position, element in enumerate(sequence):
        previous = last_position.get(element)
        if previous is None:
            if first_access == "universe":
                ranks.append(int(universe_size))
            else:
                ranks.append(len(last_position) + 1)
        else:
            # Distinct elements accessed strictly after `previous`, plus the
            # element itself.
            ranks.append(tree.range_sum(previous + 1, position) + 1)
            tree.add(previous, -1)
        tree.add(position, 1)
        last_position[element] = position
    return ranks


def working_set_bound(
    sequence: Sequence[ElementId],
    first_access: str = "distinct-so-far",
    universe_size: Optional[int] = None,
) -> float:
    """Return ``WS(sigma) = sum_t log2(rank_t)`` for the sequence.

    The paper (following Avin et al., LATIN 2020) shows this quantity is, up to
    a constant factor, a lower bound on the total cost of any algorithm,
    including the offline optimum.  Ranks of 1 (immediate repetitions)
    contribute ``log2(1) = 0``; to keep the bound meaningful as a per-request
    cost lower bound, callers usually combine it with the trivial bound of one
    unit per request (see :mod:`repro.analysis.bounds`).
    """
    ranks = ranks_of_sequence(sequence, first_access=first_access, universe_size=universe_size)
    return float(sum(math.log2(rank) for rank in ranks if rank >= 1))


def working_set_property_ratios(
    sequence: Sequence[ElementId],
    costs: Sequence[RequestCost],
    first_access: str = "distinct-so-far",
    universe_size: Optional[int] = None,
) -> List[float]:
    """Return, per request, ``access_cost / (log2(rank) + 1)``.

    An algorithm with the working-set property keeps these ratios bounded by a
    constant; Rotor-Push on the Lemma 8 adversarial sequence makes them grow
    linearly in the tree depth.
    """
    if len(sequence) != len(costs):
        raise WorkloadError(
            f"sequence length {len(sequence)} does not match cost records {len(costs)}"
        )
    ranks = ranks_of_sequence(sequence, first_access=first_access, universe_size=universe_size)
    ratios: List[float] = []
    for rank, record in zip(ranks, costs):
        denominator = math.log2(rank) + 1.0
        ratios.append(record.access_cost / denominator)
    return ratios


def max_working_set_violation(
    sequence: Sequence[ElementId],
    costs: Sequence[RequestCost],
) -> float:
    """Return the maximum access-cost-to-log-rank ratio over the sequence."""
    ratios = working_set_property_ratios(sequence, costs)
    return max(ratios) if ratios else 0.0
