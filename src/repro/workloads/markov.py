"""Markovian request workloads.

A more structured source of temporal and spatial locality than the repeat rule:
requests follow a Markov chain over the element universe.  Each element has a
small set of "neighbour" elements; from the current element the next request
stays put with probability ``self_loop``, moves to a neighbour with probability
``neighbour_probability``, and otherwise jumps to a uniformly random element.
Such chains model communication patterns where a source talks to clusters of
destinations with occasional scatter traffic, and they are used by the extended
examples and the multi-source network substrate.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_chunk_size
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec, register_workload

__all__ = ["MarkovWorkload"]


class MarkovWorkload(WorkloadGenerator):
    """Requests generated by a sparse random-neighbour Markov chain.

    Parameters
    ----------
    n_elements:
        Size of the element universe.
    n_neighbours:
        Number of neighbour elements assigned to each element.
    self_loop:
        Probability of repeating the current element.
    neighbour_probability:
        Probability of moving to one of the current element's neighbours
        (chosen uniformly among them); the remaining probability mass jumps to
        a uniform element.
    seed:
        Seed for the neighbour structure and the walk.
    """

    name = "markov"

    def __init__(
        self,
        n_elements: int,
        n_neighbours: int = 4,
        self_loop: float = 0.3,
        neighbour_probability: float = 0.5,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(n_elements, seed)
        if n_neighbours < 1:
            raise WorkloadError(f"n_neighbours must be >= 1, got {n_neighbours}")
        if not 0.0 <= self_loop <= 1.0 or not 0.0 <= neighbour_probability <= 1.0:
            raise WorkloadError("probabilities must lie in [0, 1]")
        if self_loop + neighbour_probability > 1.0:
            raise WorkloadError(
                "self_loop + neighbour_probability must not exceed 1 "
                f"(got {self_loop} + {neighbour_probability})"
            )
        self.n_neighbours = min(n_neighbours, max(1, n_elements - 1))
        self.self_loop = self_loop
        self.neighbour_probability = neighbour_probability
        self._neighbours: Dict[ElementId, List[ElementId]] = {}

    def _neighbours_of(self, element: ElementId) -> List[ElementId]:
        """Lazily build and cache the neighbour set of ``element``."""
        cached = self._neighbours.get(element)
        if cached is None:
            candidates = [e for e in range(self.n_elements) if e != element]
            if len(candidates) <= self.n_neighbours:
                cached = candidates
            else:
                cached = self._rng.sample(candidates, self.n_neighbours)
            self._neighbours[element] = cached
        return cached

    def _step(self, current: ElementId) -> ElementId:
        """Advance the chain by one transition (shared by both generation paths)."""
        rng = self._rng
        draw = rng.random()
        if draw < self.self_loop:
            return current
        if draw < self.self_loop + self.neighbour_probability:
            neighbours = self._neighbours_of(current)
            if neighbours:
                return rng.choice(neighbours)
            return current
        return rng.randrange(self.n_elements)

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return a Markov-chain request sequence of length ``n_requests``."""
        self._check_length(n_requests)
        if n_requests == 0:
            return []
        current = self._rng.randrange(self.n_elements)
        sequence = [current]
        for _ in range(n_requests - 1):
            current = self._step(current)
            sequence.append(current)
        return sequence

    def iter_requests(
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[List[ElementId]]:
        """Stream natively, as lists: the walk state carries across chunks."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        if n_requests == 0:
            return
        current = self._rng.randrange(self.n_elements)
        emitted = 0
        chunk = [current]
        emitted += 1
        while emitted < n_requests:
            if len(chunk) == chunk_size:
                yield chunk
                chunk = []
            current = self._step(current)
            chunk.append(current)
            emitted += 1
        if chunk:
            yield chunk

    def to_spec(self) -> WorkloadSpec:
        return WorkloadSpec.create(
            "markov",
            seed=self.seed,
            n_elements=self.n_elements,
            n_neighbours=self.n_neighbours,
            self_loop=self.self_loop,
            neighbour_probability=self.neighbour_probability,
        )

    def parameters(self):
        params = super().parameters()
        params.update(
            {
                "n_neighbours": self.n_neighbours,
                "self_loop": self.self_loop,
                "neighbour_probability": self.neighbour_probability,
            }
        )
        return params


@register_workload("markov")
def _build_markov(params: Dict[str, object], seed: Optional[int]) -> MarkovWorkload:
    return MarkovWorkload(
        int(params["n_elements"]),
        n_neighbours=int(params["n_neighbours"]),
        self_loop=float(params["self_loop"]),
        neighbour_probability=float(params["neighbour_probability"]),
        seed=seed,
    )
