"""Spatial-locality workloads drawn from a Zipf distribution.

Q3 of the paper controls spatial locality by sampling requests from a Zipf
(discrete power-law) distribution over the element universe: element ``k``
(1-based weight index) has probability proportional to ``k**(-a)``, where the
exponent ``a`` tunes the skew.  Larger ``a`` concentrates requests on a smaller
subset of elements and lowers the empirical entropy (the paper reports
entropies 11.07 ... 1.92 for ``a`` between 1.001 and 2.2 at 65,535 elements).

To decouple the skew from the element identifiers (the initial placement is
random anyway), the mapping from weight index to element identifier can be a
seeded random permutation.

Sampling is NumPy-vectorised when NumPy is importable (``Generator.choice``
over the probability vector, whole chunks at a time, handed to the
vectorised serve ports without ever boxing a Python int); without NumPy a pure-Python
inverse-CDF sampler (one ``random()`` + ``bisect`` per request) takes over.
Both samplers are deterministic given the seed, but they consume different
RNGs — a NumPy environment and a NumPy-less environment draw *different*
(equally valid) Zipf sequences.  Within one environment every guarantee
holds: spec round-trips, chunked == materialised, and list chunks ==
array chunks.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core import backend as _backend
from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_as_array, check_chunk_size
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec, register_workload

__all__ = ["ZipfWorkload", "zipf_probabilities"]


def zipf_probabilities(n_elements: int, exponent: float) -> Sequence[float]:
    """Return the Zipf probability vector ``p_k ∝ k**(-a)`` for ``k = 1..n``.

    Matches the probability mass function quoted in the paper's methodology:
    ``f(k, a) = 1 / (k**a * sum_i i**(-a))``.  Returns a NumPy vector when
    NumPy is importable and a plain list of floats otherwise; both index and
    iterate identically.
    """
    if n_elements <= 0:
        raise WorkloadError(f"n_elements must be positive, got {n_elements}")
    if exponent <= 0:
        raise WorkloadError(f"Zipf exponent must be positive, got {exponent}")
    if _backend.HAS_NUMPY:
        np = _backend.np
        ranks = np.arange(1, n_elements + 1, dtype=np.float64)
        weights = ranks ** (-float(exponent))
        return weights / weights.sum()
    weights = [rank ** (-float(exponent)) for rank in range(1, n_elements + 1)]
    total = sum(weights)
    return [weight / total for weight in weights]


class ZipfWorkload(WorkloadGenerator):
    """Independent requests drawn from a Zipf distribution with exponent ``a``.

    Parameters
    ----------
    n_elements:
        Size of the element universe.
    exponent:
        The skew parameter ``a > 0``; the paper uses values in
        ``{1.001, 1.3, 1.6, 1.9, 2.2}``.
    seed:
        Seed for sampling (and for the identifier permutation).
    permute_identifiers:
        When ``True`` (default) the Zipf weight ranks are mapped to element
        identifiers through a random permutation, so that popular elements are
        spread over the identifier space rather than being 0, 1, 2, ...
    """

    name = "zipf"

    def __init__(
        self,
        n_elements: int,
        exponent: float,
        seed: Optional[int] = None,
        permute_identifiers: bool = True,
    ) -> None:
        super().__init__(n_elements, seed)
        self.exponent = float(exponent)
        self.permute_identifiers = permute_identifiers
        self._probabilities = zipf_probabilities(n_elements, self.exponent)
        self._init_sampler_state()

    def _init_sampler_state(self) -> None:
        """Create the sampling stream and identifier permutation from ``self.seed``.

        NumPy environments use a ``default_rng`` stream whose ``choice`` draws
        whole chunks at once; NumPy-less environments fall back to an
        inverse-CDF sampler over ``self._rng`` (cumulative probabilities +
        bisect), consuming one uniform variate per request.
        """
        if _backend.HAS_NUMPY:
            np = _backend.np
            self._np_rng = np.random.default_rng(self.seed)
            if self.permute_identifiers:
                self._identifier_of_rank = self._np_rng.permutation(self.n_elements)
            else:
                self._identifier_of_rank = np.arange(self.n_elements)
            self._cumulative = None
        else:
            self._np_rng = None
            identifiers = list(range(self.n_elements))
            if self.permute_identifiers:
                # A dedicated Random keeps the permutation separate from the
                # sampling stream, mirroring the NumPy split (permutation
                # first, then draws).
                random.Random(self.seed).shuffle(identifiers)
            self._identifier_of_rank = identifiers
            self._cumulative = list(itertools.accumulate(self._probabilities))
            # Guard against float summation drift: the last bucket must cover
            # random() draws arbitrarily close to 1.0.
            self._cumulative[-1] = 1.0

    def _draw_ranks_python(self, count: int) -> List[int]:
        """Pure-Python sampler: inverse CDF via bisect, one draw per request."""
        cumulative = self._cumulative
        rng_random = self._rng.random
        # rank = first index whose cumulative mass exceeds the uniform draw
        return [bisect.bisect_right(cumulative, rng_random()) for _ in range(count)]

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return ``n_requests`` independent Zipf-distributed element identifiers."""
        self._check_length(n_requests)
        if n_requests == 0:
            return []
        if self._np_rng is not None:
            ranks = self._np_rng.choice(
                self.n_elements, size=n_requests, p=self._probabilities
            )
            return [int(identifier) for identifier in self._identifier_of_rank[ranks]]
        identifier_of_rank = self._identifier_of_rank
        return [identifier_of_rank[rank] for rank in self._draw_ranks_python(n_requests)]

    def iter_requests(
        self,
        n_requests: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        as_array: bool = False,
    ) -> Iterator[List[ElementId]]:
        """Stream natively: both samplers draw one variate per request from
        their stream, so chunked draws concatenate to exactly one full-size
        draw.  With ``as_array=True`` the NumPy draw is yielded as the ndarray
        it already is — identifiers never round-trip through Python ints."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        check_as_array(as_array)
        remaining = n_requests
        while remaining > 0:
            count = min(chunk_size, remaining)
            if self._np_rng is not None:
                ranks = self._np_rng.choice(
                    self.n_elements, size=count, p=self._probabilities
                )
                identifiers = self._identifier_of_rank[ranks]
                yield identifiers if as_array else [
                    int(identifier) for identifier in identifiers
                ]
            else:
                identifier_of_rank = self._identifier_of_rank
                yield [
                    identifier_of_rank[rank]
                    for rank in self._draw_ranks_python(count)
                ]
            remaining -= count

    def to_spec(self) -> WorkloadSpec:
        return WorkloadSpec.create(
            "zipf",
            seed=self.seed,
            n_elements=self.n_elements,
            exponent=self.exponent,
            permute_identifiers=self.permute_identifiers,
        )

    def probability_of_rank(self, rank: int) -> float:
        """Return the sampling probability of the ``rank``-th most popular element."""
        if not 1 <= rank <= self.n_elements:
            raise WorkloadError(
                f"rank must lie in [1, {self.n_elements}], got {rank}"
            )
        return float(self._probabilities[rank - 1])

    def parameters(self):
        params = super().parameters()
        params["exponent"] = self.exponent
        params["permute_identifiers"] = self.permute_identifiers
        return params


@register_workload("zipf")
def _build_zipf(params: Dict[str, object], seed: Optional[int]) -> ZipfWorkload:
    return ZipfWorkload(
        int(params["n_elements"]),
        float(params["exponent"]),
        seed=seed,
        permute_identifiers=bool(params.get("permute_identifiers", True)),
    )
