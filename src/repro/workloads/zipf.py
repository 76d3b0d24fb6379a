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

The probability vector and its CDF are built once per ``(n, a)`` by
:func:`zipf_table` and shared, read-only, by every generator of that shape.
When NumPy is importable the stream is ``numpy.random.default_rng(seed)``'s:
the identifier permutation first, then a chunk is
``cdf.searchsorted(rng.random(count), side="right")``, which is exactly what
``Generator.choice(n, count, p=…)`` computes after re-validating ``p`` and
re-running ``cumsum``.  For an ``int`` seed of at least 0 the C kernel
(:mod:`repro.algorithms.cascade_kernel`) draws that same stream from its
bit-exact port of ``SeedSequence`` and PCG64: the generator state and the
permutation in one call, each chunk (uniform, ``searchsorted``, identifier)
in another.  The port is compared with NumPy before its first use
(``rng_checks["zipf"]``); ``seed=None``, a negative seed (which NumPy
rejects), no kernel or a failed check draw from NumPy itself
(:func:`zipf_kernel`).  A chunk is the kernel's ``array('q')``, or the
NumPy draw unboxed in one ``tolist()`` call.

Without NumPy a pure-Python inverse-CDF sampler (one ``random()`` +
``bisect`` per request) takes over; its uniforms come from
:func:`repro.core.draws.uniforms`, on raw Mersenne Twister words in the
kernel when the chunk is large enough.  Both samplers are deterministic
given the seed, but they consume different RNGs — a NumPy environment and a
NumPy-less environment draw *different* (equally valid) Zipf sequences,
because the NumPy-less CDF is not bit-identical to NumPy's.  Within one
environment every guarantee holds: spec round-trips and chunked ==
materialised.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import backend as _backend
from repro.core.draws import shuffled_range, uniforms
from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_chunk_size
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec, register_workload

if TYPE_CHECKING:
    from repro.algorithms.cascade_kernel import CascadeKernel

__all__ = ["ZipfWorkload", "zipf_kernel", "zipf_probabilities", "zipf_table"]

#: Number of ``(n, a)`` tables kept.  The paper's grids use at most five
#: exponents per size; a 65,535-element NumPy table is 1 MiB.
ZIPF_TABLES = 8


def zipf_table(
    n_elements: int, exponent: float
) -> Tuple[Sequence[float], Sequence[float]]:
    """Return the Zipf probability vector ``p_k ∝ k**(-a)`` and its CDF.

    Matches the probability mass function quoted in the paper's methodology:
    ``f(k, a) = 1 / (k**a * sum_i i**(-a))``.  Built once per ``(n, a)`` and
    shared, so both are read-only: NumPy vectors with the writeable flag off
    when NumPy is importable, tuples of floats otherwise.

    The NumPy CDF is ``cumsum(p) / cumsum(p)[-1]``, the one
    ``Generator.choice`` builds from ``p``, so ``searchsorted`` over it draws
    what ``choice`` draws.  The pure-Python CDF is the running sum of ``p``
    with its last entry set to 1.0, so it covers ``random()`` draws
    arbitrarily close to 1.0 whatever the summation drift.
    """
    return _checked_table(n_elements, exponent)[:2]


def _checked_table(
    n_elements: int, exponent: float
) -> Tuple[Sequence[float], Sequence[float], int]:
    """:func:`zipf_table` and the address of the NumPy CDF's data (0 without NumPy)."""
    if n_elements <= 0:
        raise WorkloadError(f"n_elements must be positive, got {n_elements}")
    if exponent <= 0:
        raise WorkloadError(f"Zipf exponent must be positive, got {exponent}")
    return _zipf_table(int(n_elements), float(exponent), _backend.HAS_NUMPY)


@functools.lru_cache(maxsize=ZIPF_TABLES)
def _zipf_table(
    n_elements: int, exponent: float, with_numpy: bool
) -> Tuple[Sequence[float], Sequence[float], int]:
    if with_numpy:
        np = _backend.np
        ranks = np.arange(1, n_elements + 1, dtype=np.float64)
        weights = ranks ** (-exponent)
        probabilities = weights / weights.sum()
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        probabilities.flags.writeable = False
        cdf.flags.writeable = False
        return probabilities, cdf, cdf.ctypes.data
    weights = [rank ** (-exponent) for rank in range(1, n_elements + 1)]
    total = sum(weights)
    probabilities = tuple([weight / total for weight in weights])
    cumulative = list(itertools.accumulate(probabilities))
    cumulative[-1] = 1.0
    return probabilities, tuple(cumulative), 0


def zipf_kernel(seed) -> Optional["CascadeKernel"]:
    """The loaded kernel if it may draw ``numpy.random.default_rng(seed)``'s Zipf stream.

    That takes NumPy (the stream's CDF is NumPy's), an ``int`` seed of at
    least 0 (not ``None``, a bool or a NumPy integer) and a kernel whose
    port passes its check against NumPy (``zipf_port_matches``, run on the
    first call).
    """
    if type(seed) is not int or seed < 0 or not _backend.HAS_NUMPY:
        return None
    from repro.algorithms import cascade_kernel

    kernel = cascade_kernel.load()
    if kernel is None or not kernel.zipf_port_matches:
        return None
    return kernel


def zipf_probabilities(n_elements: int, exponent: float) -> Sequence[float]:
    """Return the shared, read-only Zipf probability vector (see :func:`zipf_table`).

    A NumPy vector when NumPy is importable and a tuple of floats otherwise;
    both index and iterate identically.
    """
    return zipf_table(n_elements, exponent)[0]


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
        self._probabilities, self._cumulative, self._cdf_address = _checked_table(
            n_elements, self.exponent
        )
        self._init_sampler_state()

    def _new_rng(self) -> Optional[random.Random]:
        # With NumPy, requests come from the default_rng stream of
        # _init_sampler_state; nothing would draw from a random.Random.
        return None if _backend.HAS_NUMPY else super()._new_rng()

    def _init_sampler_state(self) -> None:
        """Create the sampling stream and identifier permutation from ``self.seed``.

        NumPy environments draw ``default_rng(seed)``'s stream: its
        permutation first, then one uniform per request looked up in the
        shared CDF.  For an ``int`` seed of at least 0 the kernel's port of
        that generator (:func:`zipf_kernel`) builds the state and the
        permutation in one call; any other seed, no kernel or a failed
        check keeps the NumPy generator.  NumPy-less environments fall
        back to an inverse-CDF sampler over ``self._rng`` (bisect over the
        shared cumulative tuple), also consuming one uniform per request.
        """
        self._kernel = self._pcg = self._np_rng = None
        if _backend.HAS_NUMPY:
            self._kernel = zipf_kernel(self.seed)
            if self._kernel is not None:
                self._pcg, self._identifier_of_rank = self._kernel.zipf_generator(
                    self.seed, self.n_elements, self.permute_identifiers
                )
                return
            np = _backend.np
            self._np_rng = np.random.default_rng(self.seed)
            if self.permute_identifiers:
                self._identifier_of_rank = self._np_rng.permutation(self.n_elements)
            else:
                self._identifier_of_rank = np.arange(self.n_elements)
        elif self.permute_identifiers:
            # A dedicated Random keeps the permutation separate from the
            # sampling stream, mirroring the NumPy split (permutation
            # first, then draws).
            self._identifier_of_rank = shuffled_range(
                random.Random(self.seed), self.n_elements
            )
        else:
            self._identifier_of_rank = list(range(self.n_elements))

    def _draw(self, count: int) -> Sequence[int]:
        """The next ``count`` identifiers: the kernel's ``array('q')``, or a list.

        The NumPy draw is ``Generator.choice``'s, without its per-call
        validation of ``p`` and ``cumsum``, and converts its identifiers
        once; the kernel draws the same values in one call.
        """
        if self._kernel is not None:
            return self._kernel.zipf_draws(
                self._pcg, self._cdf_address, self.n_elements,
                self._identifier_of_rank, count,
            )
        if self._np_rng is not None:
            uniforms_drawn = self._np_rng.random(count)
            ranks = self._cumulative.searchsorted(uniforms_drawn, side="right")
            return self._identifier_of_rank[ranks].tolist()
        identifier_of_rank = self._identifier_of_rank
        return [identifier_of_rank[rank] for rank in self._draw_ranks_python(count)]

    def _draw_ranks_python(self, count: int) -> List[int]:
        """Pure-Python sampler: inverse CDF via bisect, one draw per request."""
        cumulative = self._cumulative
        draws = uniforms(self._rng, count)
        # rank = first index whose cumulative mass exceeds the uniform draw
        return [bisect.bisect_right(cumulative, draw) for draw in draws]

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return ``n_requests`` independent Zipf-distributed element identifiers."""
        self._check_length(n_requests)
        if n_requests == 0:
            return []
        return list(self._draw(n_requests))

    def iter_requests(
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Sequence[ElementId]]:
        """Stream natively: every sampler draws one variate per request from
        its stream, so chunked draws concatenate to exactly one full-size
        draw.  A chunk the kernel drew is its ``array('q')``, else a list."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        remaining = n_requests
        while remaining > 0:
            count = min(chunk_size, remaining)
            yield self._draw(count)
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
