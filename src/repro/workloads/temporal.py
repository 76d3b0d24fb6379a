"""Temporal-locality workloads (repeat-with-probability ``p``).

Following the paper's Q2 methodology (which in turn follows Avin et al.'s
traffic-complexity work), the degree of temporal locality of a sequence is
controlled by the probability ``p`` of repeating the previous request:

1. draw a base sequence of uniform requests, then
2. for every position ``i >= 2``, with probability ``p`` set
   ``sigma_i = sigma_{i-1}`` and otherwise leave ``sigma_i`` unchanged.

Larger ``p`` yields longer runs of identical requests and lower empirical
entropy; the paper reports entropies from 15.95 (``p = 0``) down to 15.16
(``p = 0.9``) for 65,535 elements.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.core import backend as _backend
from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_as_array, check_chunk_size
from repro.workloads.spec import (
    DEFAULT_CHUNK_SIZE,
    WorkloadSpec,
    build_workload,
    register_workload,
)
from repro.workloads.uniform import UniformWorkload

__all__ = ["TemporalWorkload", "apply_temporal_locality"]


def apply_temporal_locality(
    sequence: Sequence[ElementId],
    repeat_probability: float,
    rng,
) -> List[ElementId]:
    """Post-process ``sequence`` with the repeat rule of the paper's Q2.

    For every position ``i >= 1`` (0-based), with probability
    ``repeat_probability`` the request is replaced by the (already
    post-processed) previous request; otherwise it is kept.  The first request
    is never modified.
    """
    if not 0.0 <= repeat_probability <= 1.0:
        raise WorkloadError(
            f"repeat probability must lie in [0, 1], got {repeat_probability}"
        )
    result = list(sequence)
    for index in range(1, len(result)):
        if rng.random() < repeat_probability:
            result[index] = result[index - 1]
    return result


class TemporalWorkload(WorkloadGenerator):
    """Uniform requests post-processed to repeat the previous request with probability ``p``.

    Parameters
    ----------
    n_elements:
        Size of the element universe.
    repeat_probability:
        The temporal-locality parameter ``p`` in ``[0, 1]``.
    seed:
        Seed controlling both the base uniform draw and the repeat decisions.
    base:
        Optional alternative base workload to post-process (defaults to
        :class:`repro.workloads.uniform.UniformWorkload`); used by the combined
        temporal+spatial workload of Q4.
    """

    name = "temporal"

    def __init__(
        self,
        n_elements: int,
        repeat_probability: float,
        seed: Optional[int] = None,
        base: Optional[WorkloadGenerator] = None,
    ) -> None:
        super().__init__(n_elements, seed)
        if not 0.0 <= repeat_probability <= 1.0:
            raise WorkloadError(
                f"repeat probability must lie in [0, 1], got {repeat_probability}"
            )
        self.repeat_probability = repeat_probability
        if base is not None and base.n_elements != n_elements:
            raise WorkloadError(
                "base workload universe size does not match the temporal workload"
            )
        self._base = base

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return a sequence with temporal locality ``p`` over the base workload."""
        self._check_length(n_requests)
        if self._base is not None:
            base_sequence = self._base.generate(n_requests)
        else:
            base_sequence = UniformWorkload(
                self.n_elements, seed=self._rng.randrange(2**63)
            ).generate(n_requests)
        return apply_temporal_locality(
            base_sequence, self.repeat_probability, self._rng
        )

    def iter_requests(
        self,
        n_requests: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        as_array: bool = False,
    ) -> Iterator[List[ElementId]]:
        """Stream natively: the repeat decisions consume ``self._rng`` once per
        position after the first, so carrying the previous request across chunk
        boundaries reproduces :meth:`generate` exactly.  The base stream and
        the repeat decisions live on different RNG objects, so interleaving
        them chunk-wise does not change either stream."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        check_as_array(as_array)
        if n_requests == 0:
            return
        if self._base is not None:
            base_chunks = self._base.iter_requests(
                n_requests, chunk_size, as_array=as_array
            )
        else:
            base_chunks = UniformWorkload(
                self.n_elements, seed=self._rng.randrange(2**63)
            ).iter_requests(n_requests, chunk_size, as_array=as_array)
        yield from _repeat_postprocess_chunks(
            base_chunks, self.repeat_probability, self._rng, as_array=as_array
        )

    def to_spec(self) -> Optional[WorkloadSpec]:
        base_spec = None
        if self._base is not None:
            base_spec = self._base.to_spec()
            if base_spec is None:
                return None
        params: Dict[str, object] = {
            "n_elements": self.n_elements,
            "repeat_probability": self.repeat_probability,
        }
        if base_spec is not None:
            params["base"] = base_spec
        return WorkloadSpec.create("temporal", seed=self.seed, **params)

    def parameters(self):
        params = super().parameters()
        params["repeat_probability"] = self.repeat_probability
        if self._base is not None:
            params["base"] = self._base.parameters()
        return params


def _repeat_postprocess_chunks(
    chunks: Iterator[List[ElementId]],
    repeat_probability: float,
    rng,
    as_array: bool = False,
) -> Iterator[List[ElementId]]:
    """Chunk-streaming twin of :func:`apply_temporal_locality`.

    Consumes one ``rng.random()`` per position except the very first of the
    whole stream, in stream order — the same draws in the same order as the
    materialised helper.  With ``as_array=True`` the incoming chunks are
    NumPy arrays and the repeat rule is applied as a vectorised forward fill
    (same draws, same values, ndarray out).
    """
    if as_array:
        yield from _repeat_postprocess_chunks_array(chunks, repeat_probability, rng)
        return
    previous: Optional[ElementId] = None
    for chunk in chunks:
        result = list(chunk)
        for index in range(len(result)):
            if previous is not None and rng.random() < repeat_probability:
                result[index] = previous
            previous = result[index]
        yield result


def _repeat_postprocess_chunks_array(
    chunks: Iterator["object"],
    repeat_probability: float,
    rng,
) -> Iterator["object"]:
    """NumPy twin of :func:`_repeat_postprocess_chunks`.

    The repeat decisions are still drawn one ``rng.random()`` per position
    (identical stream to the scalar rule), but applying them is vectorised: a
    repeat run copies the last kept value, which is exactly a forward fill of
    the kept indices via a running maximum.
    """
    np = _backend.np
    previous: Optional[int] = None
    rng_random = rng.random
    for chunk in chunks:
        length = len(chunk)
        if length == 0:
            continue
        # The very first position of the stream consumes no draw.
        skip = 1 if previous is None else 0
        repeat = np.empty(length, dtype=np.bool_)
        repeat[:skip] = False
        repeat[skip:] = (
            np.fromiter(
                (rng_random() for _ in range(length - skip)),
                dtype=np.float64,
                count=length - skip,
            )
            < repeat_probability
        )
        kept = np.where(~repeat, np.arange(length), -1)
        np.maximum.accumulate(kept, out=kept)
        result = chunk[np.maximum(kept, 0)]
        if previous is not None:
            result = np.where(kept >= 0, result, previous)
        previous = int(result[-1])
        yield result


@register_workload("temporal")
def _build_temporal(params: Dict[str, object], seed: Optional[int]) -> TemporalWorkload:
    base_spec = params.get("base")
    base = build_workload(base_spec) if base_spec is not None else None
    return TemporalWorkload(
        int(params["n_elements"]),
        float(params["repeat_probability"]),
        seed=seed,
        base=base,
    )
