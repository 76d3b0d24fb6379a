"""Uniformly random request sequences.

The locality-free baseline workload: every request is drawn independently and
uniformly from the element universe.  The paper uses it directly for the
Rotor-Push vs Random-Push histogram (Figure 5b) and as the starting point of
the temporal-locality post-processing (Q2).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.draws import randranges
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_chunk_size
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec, register_workload

__all__ = ["UniformWorkload"]


class UniformWorkload(WorkloadGenerator):
    """Independent uniform requests over the whole element universe."""

    name = "uniform"

    def __init__(self, n_elements: int, seed: Optional[int] = None) -> None:
        super().__init__(n_elements, seed)

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return ``n_requests`` i.i.d. uniform element identifiers."""
        self._check_length(n_requests)
        return list(randranges(self._rng, self.n_elements, n_requests))

    def iter_requests(
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Sequence[ElementId]]:
        """Stream natively: draws are sequential, so chunking is exact.

        A chunk the kernel drew is its ``array('q')``, else a list.
        """
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        remaining = n_requests
        while remaining > 0:
            count = min(chunk_size, remaining)
            yield randranges(self._rng, self.n_elements, count)
            remaining -= count

    def to_spec(self) -> WorkloadSpec:
        return WorkloadSpec.create("uniform", seed=self.seed, n_elements=self.n_elements)


@register_workload("uniform")
def _build_uniform(params: Dict[str, object], seed: Optional[int]) -> UniformWorkload:
    return UniformWorkload(int(params["n_elements"]), seed=seed)
