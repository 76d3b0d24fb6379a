"""Workload generator base classes.

A *workload* is a recipe for producing request sequences over a universe of
``n_elements`` elements.  Generators are deterministic given their seed, so
every experiment can be reproduced exactly; they expose the parameters that the
paper varies (repeat probability ``p`` for temporal locality, Zipf exponent
``a`` for spatial locality, tree size for Q1) through their constructors.

Two protocols matter for the experiment pipeline:

* **Specs** — :meth:`WorkloadGenerator.to_spec` describes a generator as an
  immutable :class:`repro.workloads.spec.WorkloadSpec` that
  :func:`repro.workloads.spec.build_workload` turns back into a pristine
  generator.  Specs (not generator objects, not materialised sequences) are
  what the runners ship to pool workers.
* **Streaming** — :meth:`WorkloadGenerator.iter_requests` yields the exact
  stream that :meth:`generate` would return, in chunks, so paper-scale
  sequences (10^6 requests) never need to be resident at once.  Subclasses
  with sequentially drawn randomness override it natively; the base fallback
  materialises once and slices, which is always correct.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterator, List, Optional

from repro.core import backend as _backend
from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec, register_workload

__all__ = [
    "WorkloadGenerator",
    "SequenceWorkload",
    "check_chunk_size",
    "check_as_array",
    "chunk_to_array",
]


def check_chunk_size(chunk_size: int) -> int:
    """Validate a streaming chunk size (shared by all ``iter_requests``)."""
    if chunk_size <= 0:
        raise WorkloadError(f"chunk_size must be positive, got {chunk_size}")
    return chunk_size


def check_as_array(as_array: bool) -> bool:
    """Validate an ``as_array`` request (shared by all ``iter_requests``).

    NumPy-native chunk transport needs NumPy; callers gate on
    :data:`repro.core.backend.HAS_NUMPY` (the trial runner does), so
    hitting this error means a caller asked for arrays unconditionally.
    """
    if as_array and not _backend.HAS_NUMPY:
        raise WorkloadError(
            "iter_requests(as_array=True) requires NumPy; "
            "stream plain list chunks instead"
        )
    return as_array


def chunk_to_array(chunk: List[ElementId]):
    """Convert one list chunk to the ndarray the vectorised ports consume.

    Generators whose randomness is drawn request-by-request (uniform, markov,
    ...) produce the same Python ints either way; this wraps them once per
    chunk instead of once per request.  Generators that already draw NumPy
    vectors (zipf) skip this and yield their arrays directly.
    """
    return _backend.np.asarray(chunk, dtype=_backend.np.intp)


class WorkloadGenerator(abc.ABC):
    """Base class for all request-sequence generators.

    Parameters
    ----------
    n_elements:
        Size of the element universe; generated identifiers lie in
        ``[0, n_elements)``.
    seed:
        Seed of the generator's private :class:`random.Random` instance.
    """

    #: Short name used in experiment metadata and benchmark labels.
    name: str = "abstract"

    #: Whether runners should prefer shipping this workload's spec to pool
    #: workers.  True for generators whose spec is a small recipe; False for
    #: trace-backed workloads whose spec embeds the full trace — shipping the
    #: (truncated) materialised sequence is strictly smaller for those.
    ships_as_spec: bool = True

    def __init__(self, n_elements: int, seed: Optional[int] = None) -> None:
        if n_elements <= 0:
            raise WorkloadError(f"n_elements must be positive, got {n_elements}")
        self.n_elements = n_elements
        self.seed = seed
        self._rng = random.Random(seed)

    @abc.abstractmethod
    def generate(self, n_requests: int) -> List[ElementId]:
        """Return a request sequence of length ``n_requests``."""

    def _check_length(self, n_requests: int) -> int:
        if n_requests < 0:
            raise WorkloadError(f"n_requests must be non-negative, got {n_requests}")
        return n_requests

    def parameters(self) -> Dict[str, object]:
        """Return the generator's parameters (for experiment metadata)."""
        return {"workload": self.name, "n_elements": self.n_elements, "seed": self.seed}

    def iter_requests(
        self,
        n_requests: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        as_array: bool = False,
    ) -> Iterator[List[ElementId]]:
        """Yield the stream of :meth:`generate` in chunks of ``chunk_size``.

        The concatenation of the yielded chunks is exactly
        ``generate(n_requests)`` on a generator in the same RNG state.  This
        base implementation materialises once and slices — always correct;
        subclasses whose randomness is drawn sequentially per request override
        it to generate chunk by chunk without ever holding the full sequence.

        ``as_array=True`` (requires NumPy) yields integer ndarrays instead of
        lists — the transport format of the vectorised serve ports.  The values
        are identical either way; only the container changes.
        """
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        check_as_array(as_array)
        sequence = self.generate(n_requests)
        for start in range(0, len(sequence), chunk_size):
            chunk = sequence[start : start + chunk_size]
            yield chunk_to_array(chunk) if as_array else chunk

    def to_spec(self) -> Optional[WorkloadSpec]:
        """Return the spec that rebuilds this generator, or ``None``.

        ``None`` means the generator cannot be described declaratively (e.g.
        adaptive adversaries); callers then fall back to materialising the
        sequence.  The returned spec reconstructs the generator *as freshly
        constructed* — it does not capture consumed RNG state, so callers must
        take the spec before generating.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        params = ", ".join(f"{k}={v!r}" for k, v in self.parameters().items())
        return f"{type(self).__name__}({params})"


class SequenceWorkload(WorkloadGenerator):
    """A workload that simply replays a fixed, externally supplied sequence.

    Useful for corpus-derived traces and for unit tests that need full control
    over the requests.
    """

    name = "fixed-sequence"

    # The spec *is* the trace; runners ship the truncated sequence instead.
    ships_as_spec = False

    def __init__(self, n_elements: int, sequence: List[ElementId]) -> None:
        super().__init__(n_elements, seed=None)
        for element in sequence:
            if not 0 <= element < n_elements:
                raise WorkloadError(
                    f"sequence element {element} outside universe of size {n_elements}"
                )
        self._sequence = list(sequence)

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return the first ``n_requests`` entries (or the whole trace if shorter)."""
        self._check_length(n_requests)
        if n_requests >= len(self._sequence):
            return list(self._sequence)
        return self._sequence[:n_requests]

    def iter_requests(
        self,
        n_requests: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        as_array: bool = False,
    ) -> Iterator[List[ElementId]]:
        """Yield trace slices directly, never copying the whole trace."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        check_as_array(as_array)
        limit = min(n_requests, len(self._sequence))
        for start in range(0, limit, chunk_size):
            chunk = self._sequence[start : min(start + chunk_size, limit)]
            yield chunk_to_array(chunk) if as_array else chunk

    def to_spec(self) -> WorkloadSpec:
        """Describe the trace as a ``fixed-sequence`` spec (the trace is the data)."""
        return WorkloadSpec.create(
            "fixed-sequence",
            n_elements=self.n_elements,
            sequence=tuple(self._sequence),
        )

    def full_sequence(self) -> List[ElementId]:
        """Return the complete stored trace."""
        return list(self._sequence)

    def parameters(self) -> Dict[str, object]:
        params = super().parameters()
        params["trace_length"] = len(self._sequence)
        return params


@register_workload("fixed-sequence")
def _build_fixed_sequence(params: Dict[str, object], seed: Optional[int]) -> SequenceWorkload:
    return SequenceWorkload(int(params["n_elements"]), list(params["sequence"]))
