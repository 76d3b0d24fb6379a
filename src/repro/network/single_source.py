"""Single-source reconfigurable tree network.

A :class:`SingleSourceTreeNetwork` is the datacenter-facing wrapper around one
self-adjusting tree algorithm: a *source* network node is attached to the root
of a complete binary tree whose nodes host the source's possible communication
*destinations*.  Serving a communication request to destination ``d`` costs the
destination's current depth plus one (the number of optical hops from the
source), and the tree may then be reconfigured by swapping adjacent
destinations, at unit cost per swap - exactly the model of the paper.

The wrapper takes care of the bookkeeping the raw algorithms do not do:
mapping the destination identifiers (every network node but the source) onto
tree elements and padding the universe up to the next complete-binary-tree
size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.registry import AlgorithmSpec, make_algorithm
from repro.core.cost import RequestCost
from repro.core.state import shared_ints
from repro.exceptions import AlgorithmError
from repro.types import ElementId
from repro.workloads.corpus import next_complete_size

__all__ = ["SingleSourceTreeNetwork", "destination_table", "elements_of"]


class SingleSourceTreeNetwork:
    """A source node plus a self-adjusting tree of its destinations.

    Parameters
    ----------
    source:
        Identifier of the source network node.
    n_nodes:
        Size of the network: the destinations are every node of
        ``0 .. n_nodes - 1`` but the source, in ascending order.  The universe
        is padded to the next ``2**k - 1`` size with unused filler elements.
    algorithm:
        Registry name — or :class:`~repro.algorithms.registry.AlgorithmSpec`,
        whose params become constructor keyword arguments — of the tree
        algorithm to use (default ``"rotor-push"``).
    placement_seed, algorithm_seed:
        Seeds for the initial random placement and for the algorithm's own
        randomness (Random-Push).
    keep_records:
        Whether to keep per-request cost records.
    """

    def __init__(
        self,
        source: int,
        n_nodes: int,
        algorithm: Union[str, AlgorithmSpec] = "rotor-push",
        placement_seed: Optional[int] = None,
        algorithm_seed: Optional[int] = None,
        keep_records: bool = False,
    ) -> None:
        #: ``_element_of[d]`` is the element hosting destination ``d``, or -1
        #: for the source itself.
        self._element_of: List[int] = destination_table(n_nodes, source)
        self._n_destinations = n_nodes - 1
        if not self._n_destinations:
            raise AlgorithmError(f"source {source} has no destinations")
        algorithm = AlgorithmSpec.coerce(algorithm)
        self.source = source
        self.algorithm_name = algorithm.name
        universe = next_complete_size(self._n_destinations)
        self._tree_algorithm: OnlineTreeAlgorithm = make_algorithm(
            algorithm,
            n_nodes=universe,
            placement_seed=placement_seed,
            seed=algorithm_seed,
            keep_records=keep_records,
        )
        self._served = 0

    # -------------------------------------------------------------- properties

    @property
    def n_destinations(self) -> int:
        """Number of real (non-filler) destinations."""
        return self._n_destinations

    @property
    def tree_size(self) -> int:
        """Size of the underlying (padded) complete binary tree."""
        return self._tree_algorithm.network.tree.n_nodes

    @property
    def tree_algorithm(self) -> OnlineTreeAlgorithm:
        """The underlying self-adjusting tree algorithm instance."""
        return self._tree_algorithm

    @property
    def n_served(self) -> int:
        """Number of communication requests served so far."""
        return self._served

    def destinations(self) -> List[int]:
        """Return the destination identifiers handled by this source tree, by element."""
        return [d for d, element in enumerate(self._element_of) if element >= 0]

    # ----------------------------------------------------------------- serving

    def element_of(self, destination: int) -> ElementId:
        """Return the tree element hosting ``destination``."""
        return _element_of(self._element_of, destination, self.source)

    def serve(self, destination: int) -> RequestCost:
        """Serve one communication request to ``destination`` and return its cost."""
        record = self._tree_algorithm.serve(self.element_of(destination))
        self._served += 1
        return record

    def elements_of(self, destinations: Iterable[int]) -> List[ElementId]:
        """Translate destinations to tree elements, all or nothing.

        Raises :class:`~repro.exceptions.AlgorithmError` naming the first
        destination not reachable from this source.
        """
        return elements_of(self._element_of, destinations, self.source)

    def serve_batch(self, destinations: Sequence[int]) -> int:
        """Serve a destination chunk through the tree's batch dispatch.

        The multi-source fast path: destinations are translated to elements
        in bulk (the whole chunk is checked before any of it is served) and
        handed to :meth:`serve_elements`.  Costs, placements and records are
        identical to serving the chunk one :meth:`serve` call at a time.
        """
        return self.serve_elements(self.elements_of(destinations))

    def serve_elements(self, elements: Sequence[ElementId]) -> int:
        """Serve a chunk already translated by :meth:`elements_of`.

        Hands it to
        :meth:`repro.algorithms.base.OnlineTreeAlgorithm.serve_batch` and
        returns the number of requests served.
        """
        served = self._tree_algorithm.serve_batch(elements)
        self._served += served
        return served

    # --------------------------------------------------------------- reporting

    def cost_summary(self) -> Dict[str, float]:
        """Return the cost totals accumulated by this source tree so far."""
        summary = self._tree_algorithm.network.ledger.snapshot_totals()
        summary["source"] = self.source
        summary["n_destinations"] = self.n_destinations
        return summary


def destination_table(n_nodes: int, source: int) -> List[int]:
    """The element table of ``source``'s tree in an ``n_nodes``-node network.

    ``table[d]`` is the element hosting destination ``d``: ``d`` for every
    node below the source, ``d - 1`` above it, and -1 for the source itself.
    """
    if not 0 <= source < n_nodes:
        raise AlgorithmError(f"source {source} outside [0, {n_nodes})")
    ints = shared_ints(n_nodes)
    return [*ints[:source], -1, *ints[source : n_nodes - 1]]


def elements_of(
    table: List[int], destinations: Iterable[int], source: int
) -> List[ElementId]:
    """Translate destinations to elements through ``table``, all or nothing.

    Raises :class:`~repro.exceptions.AlgorithmError` naming the first
    destination that is not reachable from ``source``.
    """
    if type(destinations) is not list:
        destinations = list(destinations)
    try:
        elements = [table[destination] for destination in destinations]
        # a negative destination would index the table from its end
        if not elements or (min(elements) >= 0 and min(destinations) >= 0):
            return elements
    except (IndexError, TypeError):
        pass
    return [_element_of(table, destination, source) for destination in destinations]


def _element_of(table: List[int], destination: int, source: int) -> ElementId:
    """The element of ``destination`` in ``table``; raises if it has none."""
    try:
        element = table[destination] if destination >= 0 else -1
    except (IndexError, TypeError):
        element = -1
    if element < 0:
        raise AlgorithmError(
            f"destination {destination} is not reachable from source {source}"
        )
    return element

