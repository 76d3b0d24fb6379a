"""Single-source reconfigurable tree network.

A :class:`SingleSourceTreeNetwork` is the datacenter-facing wrapper around one
self-adjusting tree algorithm: a *source* network node is attached to the root
of a complete binary tree whose nodes host the source's possible communication
*destinations*.  Serving a communication request to destination ``d`` costs the
destination's current depth plus one (the number of optical hops from the
source), and the tree may then be reconfigured by swapping adjacent
destinations, at unit cost per swap - exactly the model of the paper.

The wrapper takes care of the bookkeeping the raw algorithms do not do:
mapping arbitrary destination identifiers onto tree elements and padding the
universe up to the next complete-binary-tree size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.algorithms.base import OnlineTreeAlgorithm, RunResult
from repro.algorithms.registry import AlgorithmSpec, make_algorithm
from repro.core.cost import RequestCost
from repro.exceptions import AlgorithmError
from repro.types import ElementId
from repro.workloads.corpus import next_complete_size

__all__ = ["SingleSourceTreeNetwork"]


class SingleSourceTreeNetwork:
    """A source node plus a self-adjusting tree of its destinations.

    Parameters
    ----------
    source:
        Identifier of the source network node (kept for reporting only).
    destinations:
        The destination identifiers reachable from this source.  They are
        mapped to tree elements in the order given; the universe is padded to
        the next ``2**k - 1`` size with unused filler elements.
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
        destinations: Sequence[int],
        algorithm: Union[str, AlgorithmSpec] = "rotor-push",
        placement_seed: Optional[int] = None,
        algorithm_seed: Optional[int] = None,
        keep_records: bool = False,
    ) -> None:
        if not destinations:
            raise AlgorithmError(f"source {source} has no destinations")
        unique = dict.fromkeys(destinations)
        if source in unique:
            raise AlgorithmError(f"source {source} cannot be its own destination")
        algorithm = AlgorithmSpec.coerce(algorithm)
        self.source = source
        self.algorithm_name = algorithm.name
        self._element_of: Dict[int, ElementId] = dict(zip(unique, range(len(unique))))
        universe = next_complete_size(len(unique))
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
        return len(self._element_of)

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
        """Return the destination identifiers handled by this source tree."""
        return list(self._element_of)

    # ----------------------------------------------------------------- serving

    def element_of(self, destination: int) -> ElementId:
        """Return the tree element hosting ``destination``."""
        try:
            return self._element_of[destination]
        except KeyError:
            raise AlgorithmError(
                f"destination {destination} is not reachable from source {self.source}"
            ) from None

    def destination_depth(self, destination: int) -> int:
        """Return the current depth (level) of ``destination`` in the source tree."""
        return self._tree_algorithm.network.level_of(self.element_of(destination))

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
        try:
            return list(map(self._element_of.__getitem__, destinations))
        except KeyError as error:
            raise AlgorithmError(
                f"destination {error.args[0]} is not reachable from source {self.source}"
            ) from None

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

    def serve_sequence(self, destinations: Sequence[int]) -> RunResult:
        """Serve a whole destination sequence and return the aggregated result.

        Offline tree algorithms (Static-Opt) are prepared with the translated
        element sequence before serving, mirroring
        :meth:`repro.algorithms.base.OnlineTreeAlgorithm.run`.
        """
        elements = self.elements_of(destinations)
        result = self._tree_algorithm.run(
            elements, metadata={"source": self.source, "algorithm": self.algorithm_name}
        )
        self._served += len(elements)
        return result

    # --------------------------------------------------------------- reporting

    def cost_summary(self) -> Dict[str, float]:
        """Return the cost totals accumulated by this source tree so far."""
        summary = self._tree_algorithm.network.ledger.snapshot_totals()
        summary["source"] = self.source
        summary["n_destinations"] = self.n_destinations
        return summary
