"""Combined temporal + spatial locality workloads (Q4).

Q4 of the paper studies grids of locality parameters: sequences are first drawn
from a Zipf distribution with exponent ``a`` (spatial locality) and then
post-processed with the repeat-probability rule using probability ``p``
(temporal locality).  :class:`CombinedLocalityWorkload` reproduces exactly that
pipeline.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_chunk_size, chunk_counts
from repro.workloads.spec import (
    DEFAULT_CHUNK_SIZE,
    WorkloadSpec,
    register_workload,
)
from repro.workloads.temporal import _repeat_postprocess_chunks, apply_temporal_locality
from repro.workloads.zipf import ZipfWorkload

__all__ = ["CombinedLocalityWorkload"]


class CombinedLocalityWorkload(WorkloadGenerator):
    """Zipf-distributed requests post-processed with temporal repetition.

    Parameters
    ----------
    n_elements:
        Size of the element universe.
    zipf_exponent:
        Spatial-locality parameter ``a`` (paper grid: 1.001 ... 2.2).
    repeat_probability:
        Temporal-locality parameter ``p`` (paper grid: 0 ... 0.9).
    seed:
        Seed for both stages.
    """

    name = "combined-locality"

    def __init__(
        self,
        n_elements: int,
        zipf_exponent: float,
        repeat_probability: float,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(n_elements, seed)
        if not 0.0 <= repeat_probability <= 1.0:
            raise WorkloadError(
                f"repeat probability must lie in [0, 1], got {repeat_probability}"
            )
        self.zipf_exponent = float(zipf_exponent)
        self.repeat_probability = repeat_probability
        self._zipf = ZipfWorkload(
            n_elements, zipf_exponent, seed=self._rng.randrange(2**63)
        )

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return a sequence with the requested combination of localities."""
        self._check_length(n_requests)
        base = self._zipf.generate(n_requests)
        return apply_temporal_locality(base, self.repeat_probability, self._rng)

    def iter_requests(
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Sequence[ElementId]]:
        """Stream natively: Zipf chunks post-processed with the repeat rule,
        carrying the previous request across chunk boundaries.  A chunk the
        kernel ran the repeat rule on is its ``array('q')``, else a list."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        # the private Zipf stream's chunks (its iter_requests, drawn without
        # checking the arguments again) are this stream's own: the rule runs
        # on them where the kernel drew them
        yield from _repeat_postprocess_chunks(
            map(self._zipf._draw, chunk_counts(n_requests, chunk_size)),
            self.repeat_probability,
            self._rng,
            in_place=True,
        )

    def to_spec(self) -> WorkloadSpec:
        return WorkloadSpec.create(
            "combined-locality",
            seed=self.seed,
            n_elements=self.n_elements,
            zipf_exponent=self.zipf_exponent,
            repeat_probability=self.repeat_probability,
        )

    def parameters(self):
        params = super().parameters()
        params["zipf_exponent"] = self.zipf_exponent
        params["repeat_probability"] = self.repeat_probability
        return params


@register_workload("combined-locality")
def _build_combined(params: Dict[str, object], seed: Optional[int]) -> CombinedLocalityWorkload:
    return CombinedLocalityWorkload(
        int(params["n_elements"]),
        float(params["zipf_exponent"]),
        float(params["repeat_probability"]),
        seed=seed,
    )
