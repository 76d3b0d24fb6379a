"""Static-Opt: the offline statically optimal tree.

The paper's second reference point: a static tree "where elements are placed in
decreasing frequency in a BFS order" computed from the *whole* request sequence
in advance, after which no adjustments are performed.  Among all static
placements this minimises the total access cost (placing more frequent elements
closer to the root can only help), so it lower-bounds every static strategy.

Being offline, it must be prepared with the full sequence before serving
(:meth:`StaticOpt.prepare`); :meth:`OnlineTreeAlgorithm.run` does this
automatically.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import List

from repro.algorithms import cascade_kernel as _kernel
from repro.algorithms.base import OnlineTreeAlgorithm
from repro.core.state import TreeNetwork
from repro.exceptions import AlgorithmError, MappingError
from repro.types import ElementId, Level, RequestSequence

__all__ = ["StaticOpt", "frequency_placement"]


def frequency_placement(n_nodes: int, sequence: RequestSequence) -> List[ElementId]:
    """Return the placement storing elements by decreasing frequency in BFS order.

    ``placement[node] = element``; ties between equally frequent elements are
    broken by element identifier so the placement is deterministic.
    Elements that never appear in the sequence fill the remaining nodes.

    A list or ``array('q')`` of at least ``n_nodes`` requests is counted in
    one pass of the C kernel when it loaded
    (:meth:`~repro.algorithms.cascade_kernel.CascadeKernel.element_counts`);
    :func:`_counted_placement`, the reference, counts everything else and
    raises for an element outside the universe.
    """
    if isinstance(sequence, (list, array)) and len(sequence) >= n_nodes:
        kernel = _kernel.load()
        if kernel is not None:
            try:
                counts = kernel.element_counts(sequence, n_nodes)
            except (MappingError, TypeError):
                pass  # the reference raises its own error, or counts what C cannot
            else:
                # a stable descending sort keeps equal counts in identifier order
                return sorted(range(n_nodes), key=counts.__getitem__, reverse=True)
    return _counted_placement(n_nodes, sequence)


def _counted_placement(n_nodes: int, sequence: RequestSequence) -> List[ElementId]:
    """:func:`frequency_placement` with the counts of a :class:`Counter`."""
    counts = Counter(sequence)
    for element in counts:
        if not 0 <= element < n_nodes:
            raise AlgorithmError(
                f"sequence contains element {element} outside universe of size {n_nodes}"
            )
    by_frequency = sorted(range(n_nodes), key=lambda e: (-counts.get(e, 0), e))
    return by_frequency


class StaticOpt(OnlineTreeAlgorithm):
    """Offline frequency-ordered static tree (no adjustments during the run)."""

    name = "static-opt"
    is_deterministic = True
    is_self_adjusting = False
    kernel = "static_opt"
    requires_preparation = True

    def __init__(self, network: TreeNetwork) -> None:
        super().__init__(network)

    def prepare(self, sequence: RequestSequence) -> None:
        """Arrange the tree by decreasing request frequency (BFS order)."""
        placement = frequency_placement(self.network.tree.n_nodes, sequence)
        self.network.reset_placement(placement)
        super().prepare(sequence)

    def _adjust(self, element: ElementId, level: Level) -> None:
        # Static: the frequency-ordered placement is never changed.
        return
