"""Combined temporal + spatial locality workloads (Q4).

Q4 of the paper studies grids of locality parameters: sequences are first drawn
from a Zipf distribution with exponent ``a`` (spatial locality) and then
post-processed with the repeat-probability rule using probability ``p``
(temporal locality).  :class:`CombinedLocalityWorkload` reproduces exactly that
pipeline; :class:`MixtureWorkload` is a more general utility that interleaves
arbitrary generators with given weights (useful for custom scenarios and for
stress-testing the algorithms).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_as_array, check_chunk_size
from repro.workloads.spec import (
    DEFAULT_CHUNK_SIZE,
    WorkloadSpec,
    build_workload,
    register_workload,
)
from repro.workloads.temporal import _repeat_postprocess_chunks, apply_temporal_locality
from repro.workloads.zipf import ZipfWorkload

__all__ = ["CombinedLocalityWorkload", "MixtureWorkload"]


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
        self,
        n_requests: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        as_array: bool = False,
    ) -> Iterator[List[ElementId]]:
        """Stream natively: Zipf chunks post-processed with the repeat rule,
        carrying the previous request across chunk boundaries.  With
        ``as_array=True`` the Zipf draws stay NumPy arrays end-to-end and the
        repeat rule is applied as a vectorised forward fill."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        check_as_array(as_array)
        yield from _repeat_postprocess_chunks(
            self._zipf.iter_requests(n_requests, chunk_size, as_array=as_array),
            self.repeat_probability,
            self._rng,
            as_array=as_array,
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


class MixtureWorkload(WorkloadGenerator):
    """Interleave several generators, picking one per request with fixed weights.

    Parameters
    ----------
    n_elements:
        Size of the element universe (all component generators must agree).
    components:
        The component workload generators.
    weights:
        Optional positive selection weights (default: uniform over components).
    seed:
        Seed for the per-request component selection.
    """

    name = "mixture"

    def __init__(
        self,
        n_elements: int,
        components: Sequence[WorkloadGenerator],
        weights: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(n_elements, seed)
        if not components:
            raise WorkloadError("mixture requires at least one component workload")
        for component in components:
            if component.n_elements != n_elements:
                raise WorkloadError(
                    "all mixture components must share the same universe size"
                )
        if weights is None:
            weights = [1.0] * len(components)
        if len(weights) != len(components) or any(w <= 0 for w in weights):
            raise WorkloadError("weights must be positive and match the components")
        self._components = list(components)
        self._weights = [float(w) for w in weights]

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return a sequence where each request comes from a weighted random component.

        The choice vector is drawn first and each component generates exactly
        the number of requests the choices assign to it, so component RNG
        streams advance by the consumed amount only (no k-times overdraw at
        paper scale) and stay consistent with the interleaved output.
        """
        self._check_length(n_requests)
        choices = self._rng.choices(
            range(len(self._components)), weights=self._weights, k=n_requests
        )
        counts = [0] * len(self._components)
        for pick in choices:
            counts[pick] += 1
        streams = [
            component.generate(count)
            for component, count in zip(self._components, counts)
        ]
        cursors = [0] * len(streams)
        sequence: List[ElementId] = []
        for pick in choices:
            sequence.append(streams[pick][cursors[pick]])
            cursors[pick] += 1
        return sequence

    def to_spec(self) -> Optional[WorkloadSpec]:
        component_specs = []
        for component in self._components:
            spec = component.to_spec()
            if spec is None:
                return None
            component_specs.append(spec)
        return WorkloadSpec.create(
            "mixture",
            seed=self.seed,
            n_elements=self.n_elements,
            components=tuple(component_specs),
            weights=tuple(self._weights),
        )

    def parameters(self):
        params = super().parameters()
        params["components"] = [c.parameters() for c in self._components]
        params["weights"] = list(self._weights)
        return params


@register_workload("mixture")
def _build_mixture(params: Dict[str, object], seed: Optional[int]) -> MixtureWorkload:
    components = [build_workload(spec) for spec in params["components"]]
    return MixtureWorkload(
        int(params["n_elements"]),
        components,
        weights=list(params["weights"]),
        seed=seed,
    )
