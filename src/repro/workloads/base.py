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
  what plan runs ship to pool workers.
* **Streaming** — :meth:`WorkloadGenerator.iter_requests` yields the exact
  stream that :meth:`generate` would return, in chunks, so paper-scale
  sequences (10^6 requests) never need to be resident at once.  Subclasses
  with sequentially drawn randomness override it natively; the base fallback
  materialises once and slices, which is always correct.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterator, List, Optional, Sequence

from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec, register_workload

__all__ = [
    "WorkloadGenerator",
    "SequenceWorkload",
    "check_chunk_size",
    "chunk_counts",
]


def check_chunk_size(chunk_size: int) -> int:
    """Validate a streaming chunk size (shared by all ``iter_requests``)."""
    if chunk_size <= 0:
        raise WorkloadError(f"chunk_size must be positive, got {chunk_size}")
    return chunk_size


def chunk_counts(n_requests: int, chunk_size: int) -> List[int]:
    """The lengths of the chunks a stream of ``n_requests`` is cut into."""
    full, rest = divmod(n_requests, chunk_size)
    return [chunk_size] * full + [rest] * (rest > 0)


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

    def __init__(self, n_elements: int, seed: Optional[int] = None) -> None:
        if n_elements <= 0:
            raise WorkloadError(f"n_elements must be positive, got {n_elements}")
        self.n_elements = n_elements
        self.seed = seed
        self._rng = self._new_rng()

    def _new_rng(self) -> Optional[random.Random]:
        """The private generator requests are drawn from: ``random.Random(seed)``."""
        return random.Random(self.seed)

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
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Sequence[ElementId]]:
        """Yield the stream of :meth:`generate` in chunks of ``chunk_size``.

        The concatenation of the yielded chunks is exactly
        ``generate(n_requests)`` on a generator in the same RNG state.  This
        base implementation materialises once and slices — always correct;
        subclasses whose randomness is drawn sequentially per request override
        it to generate chunk by chunk without ever holding the full sequence.

        A chunk is a list, or the ``array('q')`` the C kernel drew it into
        (uniform, Zipf and temporal draws), which a seeded trial reads where
        it lies; this fallback yields lists.
        """
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        sequence = self.generate(n_requests)
        for start in range(0, len(sequence), chunk_size):
            yield sequence[start : start + chunk_size]

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
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[List[ElementId]]:
        """Yield trace slices (lists) directly, never copying the whole trace."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        limit = min(n_requests, len(self._sequence))
        for start in range(0, limit, chunk_size):
            yield self._sequence[start : min(start + chunk_size, limit)]

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
